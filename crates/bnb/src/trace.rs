//! Structured search tracing: a [`SearchObserver`] that logs kernel
//! events to stderr.
//!
//! Every driver (sequential, thread-parallel, pooled, simulated cluster)
//! emits the same [`SearchEvent`] stream from the shared expansion kernel;
//! [`LoggingObserver`] turns that stream into one `key=value` line per
//! event, cheap enough to leave compiled in and gated at runtime by a
//! [`TraceLevel`]. The CLI exposes it as `--trace-search`.
//!
//! Lines are written with `eprintln!`, which locks stderr per line, so
//! concurrent workers interleave whole lines, never fragments.

use crate::kernel::{PruneReason, SearchEvent, SearchObserver};

/// How much of the event stream to log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Only incumbent improvements and early stops — a few lines per
    /// search, enough to watch bound convergence.
    Incumbents,
    /// Every kernel event, including per-node expansions and prunes.
    /// High-volume: a full trace of a hard instance is millions of lines.
    All,
}

impl TraceLevel {
    /// Parses a CLI verbosity value.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "incumbents" | "1" => Some(TraceLevel::Incumbents),
            "all" | "full" | "2" => Some(TraceLevel::All),
            _ => None,
        }
    }
}

/// A [`SearchObserver`] writing one structured line per event to stderr.
///
/// Clone one observer per worker: the struct is two words, and cloning
/// keeps the observer trait's `&mut self` contract without locking.
#[derive(Debug, Clone, Copy)]
pub struct LoggingObserver {
    level: TraceLevel,
}

impl LoggingObserver {
    /// An observer logging at `level`.
    pub fn new(level: TraceLevel) -> Self {
        LoggingObserver { level }
    }

    /// The configured verbosity.
    pub fn level(&self) -> TraceLevel {
        self.level
    }
}

fn prune_reason_str(reason: PruneReason) -> &'static str {
    match reason {
        PruneReason::Node => "node",
        PruneReason::Child => "child",
        PruneReason::NanObjective => "nan-objective",
    }
}

impl SearchObserver for LoggingObserver {
    fn on_event(&mut self, event: SearchEvent) {
        match event {
            SearchEvent::NodeExpanded { children, kept } => {
                if self.level >= TraceLevel::All {
                    eprintln!("trace: event=expand children={children} kept={kept}");
                }
            }
            SearchEvent::Pruned { reason } => {
                if self.level >= TraceLevel::All {
                    eprintln!("trace: event=prune reason={}", prune_reason_str(reason));
                }
            }
            SearchEvent::IncumbentImproved { value } => {
                eprintln!("trace: event=incumbent value={value}");
            }
            SearchEvent::Stopped { reason } => {
                eprintln!("trace: event=stop reason={reason:?}");
            }
            SearchEvent::Stolen { nodes } => {
                if self.level >= TraceLevel::All {
                    eprintln!("trace: event=steal nodes={nodes}");
                }
            }
            SearchEvent::Donated { nodes } => {
                if self.level >= TraceLevel::All {
                    eprintln!("trace: event=donate nodes={nodes}");
                }
            }
            SearchEvent::Parked => {
                if self.level >= TraceLevel::All {
                    eprintln!("trace: event=park");
                }
            }
            // Shed events are rare and operationally significant (memory
            // pressure), so they log at every level, like incumbents and
            // stops.
            SearchEvent::Shed { nodes } => {
                eprintln!("trace: event=shed nodes={nodes}");
            }
        }
    }
}

/// `Option<LoggingObserver>` is the "maybe tracing" observer the solver
/// threads through every backend: `None` is a no-op.
impl SearchObserver for Option<LoggingObserver> {
    fn on_event(&mut self, event: SearchEvent) {
        if let Some(obs) = self {
            obs.on_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StopReason;

    #[test]
    fn trace_level_parses_cli_values() {
        assert_eq!(
            TraceLevel::parse("incumbents"),
            Some(TraceLevel::Incumbents)
        );
        assert_eq!(TraceLevel::parse("1"), Some(TraceLevel::Incumbents));
        assert_eq!(TraceLevel::parse("all"), Some(TraceLevel::All));
        assert_eq!(TraceLevel::parse("full"), Some(TraceLevel::All));
        assert_eq!(TraceLevel::parse("2"), Some(TraceLevel::All));
        assert_eq!(TraceLevel::parse("verbose"), None);
    }

    #[test]
    fn optional_observer_accepts_events() {
        // Smoke-test both arms; output goes to stderr and is not captured.
        let mut none: Option<LoggingObserver> = None;
        none.on_event(SearchEvent::IncumbentImproved { value: 1.0 });
        let mut some = Some(LoggingObserver::new(TraceLevel::Incumbents));
        some.on_event(SearchEvent::Stopped {
            reason: StopReason::Cancelled,
        });
        some.on_event(SearchEvent::NodeExpanded {
            children: 3,
            kept: 2,
        });
        assert_eq!(some.unwrap().level(), TraceLevel::Incumbents);
    }
}
