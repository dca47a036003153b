//! Renderer for the `dpml top` live dashboard.
//!
//! Pure text generation over [`WatchFrame`]s — the CLI owns the
//! terminal (clear-and-redraw with plain ANSI escapes); this module owns
//! what a frame looks like, so the dashboard is testable without a TTY
//! or a daemon. No dependencies beyond the protocol types.

use crate::protocol::WatchFrame;

/// Frames of events/s history the dashboard keeps for its sparkline.
pub const SPARK_WIDTH: usize = 32;

/// Unicode block sparkline of `values` scaled to the series' own max.
/// Empty input renders as an empty string; an all-zero series renders
/// as all-minimum blocks.
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                BLOCKS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                BLOCKS[idx.min(7)]
            }
        })
        .collect()
}

/// Human-scale a rate: `1234567.0` → `"1.2M"`.
pub fn fmt_rate(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Stateful dashboard: accumulates the events/s history and renders one
/// screen per frame.
#[derive(Debug, Default)]
pub struct Dashboard {
    events_history: Vec<f64>,
}

impl Dashboard {
    /// Fresh dashboard with an empty sparkline.
    pub fn new() -> Self {
        Dashboard::default()
    }

    /// Ingest one frame and render the full screen for it (no terminal
    /// escapes — the caller clears and homes the cursor).
    pub fn render(&mut self, addr: &str, frame: &WatchFrame) -> String {
        let events_rate = frame.rate("engine.events").unwrap_or(0.0);
        self.events_history.push(events_rate);
        let overflow = self.events_history.len().saturating_sub(SPARK_WIDTH);
        if overflow > 0 {
            self.events_history.drain(..overflow);
        }

        let c = |name: &str| frame.stats.counter(name).unwrap_or(0);
        let r = |name: &str| frame.rate(name).unwrap_or(0.0);
        let hit = r("serve.cache_hit");
        let miss = r("serve.cache_miss");
        let hit_rate = if hit + miss > 0.0 {
            100.0 * hit / (hit + miss)
        } else {
            0.0
        };

        let mut out = String::new();
        out.push_str(&format!(
            "dpml top — {addr}   frame #{}   window {} ms{}\n",
            frame.seq,
            frame.window_ms,
            if frame.draining { "   [DRAINING]" } else { "" }
        ));
        out.push_str(&format!(
            "queue {:>4}   running {:>3}   retrying {:>3}   in-flight {:>4}\n",
            frame.queue_depth,
            frame.running,
            frame.retrying,
            frame.queue_depth + frame.running + frame.retrying,
        ));
        out.push_str(&format!(
            "req/s {:>8}   done/s {:>8}   shed/s {:>7}   cache hit {:>5.1}%\n",
            fmt_rate(r("serve.submitted")),
            fmt_rate(r("serve.completed_ok")),
            fmt_rate(r("serve.shed")),
            hit_rate,
        ));
        out.push_str(&format!(
            "sheds {:>6}   retries {:>5}   panics/respawns {:>4}   cache hits {:>6}\n",
            c("serve.shed"),
            c("serve.retried"),
            c("serve.worker_panic"),
            c("serve.cache_hit"),
        ));
        if let Some(w) = frame.windows.iter().find(|w| w.name == "serve.job_us") {
            out.push_str(&format!(
                "job us (window) p50 {:>6} p99 {:>6}   ({} samples)\n",
                w.p50, w.p99, w.count
            ));
        }
        if let Some(h) = frame
            .stats
            .histograms
            .iter()
            .find(|h| h.name == "serve.job_us")
        {
            out.push_str(&format!(
                "job us (total)  p50 {:>6} p99 {:>6}   mean {:>8.1}\n",
                h.p50, h.p99, h.mean
            ));
        }
        out.push_str(&format!(
            "journal {:>8}B  ckpts {:>5}   resumes {:>3}   compactions {:>3}   torn tails {:>2}\n",
            c("serve.journal_bytes"),
            c("serve.checkpoints_written"),
            c("serve.resumes"),
            c("serve.journal_compactions"),
            c("serve.journal_torn_tail"),
        ));
        out.push_str(&format!(
            "events/s {:>8}  {}\n",
            fmt_rate(events_rate),
            sparkline(&self.events_history),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CounterStat, RateStat, ServeStats};

    fn frame() -> WatchFrame {
        WatchFrame {
            seq: 3,
            t_ms: 1_000,
            queue_depth: 2,
            running: 1,
            retrying: 0,
            draining: false,
            stats: ServeStats {
                counters: vec![
                    CounterStat {
                        name: "serve.shed".into(),
                        value: 5,
                    },
                    CounterStat {
                        name: "serve.retried".into(),
                        value: 1,
                    },
                    CounterStat {
                        name: "serve.journal_bytes".into(),
                        value: 4096,
                    },
                    CounterStat {
                        name: "serve.resumes".into(),
                        value: 2,
                    },
                ],
                histograms: vec![],
            },
            rates: vec![
                RateStat {
                    name: "engine.events".into(),
                    delta: 500_000,
                    per_sec: 1_000_000.0,
                },
                RateStat {
                    name: "serve.submitted".into(),
                    delta: 6,
                    per_sec: 12.0,
                },
            ],
            windows: vec![],
            window_ms: 500,
        }
    }

    #[test]
    fn sparkline_scales_to_series_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[1.0, 4.0, 8.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }

    #[test]
    fn rates_are_humanized() {
        assert_eq!(fmt_rate(3.0), "3.0");
        assert_eq!(fmt_rate(1_500.0), "1.5k");
        assert_eq!(fmt_rate(2_000_000.0), "2.0M");
    }

    #[test]
    fn render_includes_gauges_rates_and_sparkline() {
        let mut dash = Dashboard::new();
        let text = dash.render("127.0.0.1:4077", &frame());
        assert!(text.contains("frame #3"));
        assert!(text.contains("queue    2"));
        assert!(text.contains("req/s"));
        assert!(text.contains("12.0"));
        assert!(text.contains("1.0M"));
        assert!(text.contains("sheds      5"));
        assert!(text.contains("journal     4096B"));
        assert!(text.contains("resumes   2"));
        assert!(text.contains('█') || text.contains('▁'));
    }

    #[test]
    fn sparkline_history_is_bounded() {
        let mut dash = Dashboard::new();
        for _ in 0..(SPARK_WIDTH + 10) {
            dash.render("a", &frame());
        }
        assert_eq!(dash.events_history.len(), SPARK_WIDTH);
    }
}
