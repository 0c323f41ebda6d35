//! Tunable policies shared by the runtime and the simulator.
//!
//! The paper fixes a FIFO strategy for local scheduling (to avoid
//! starvation) and a LIFO strategy for answering help requests (to hide
//! communication latency), but explicitly leaves the decision "which
//! microframes to give to the processing manager or to other sites" as
//! room for research — so both are configurable here, and E4
//! (`policy_ablation`) measures the alternatives.
//!
//! The decisions themselves live here too, so the runtime and the
//! simulator make them with one piece of code: [`QueuePolicy::pop`]
//! orders every queue, and [`pick_help_target`] chooses whom an idle
//! site asks for work.

use crate::coord::{Coord, VivaldiState};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::fmt;

/// Scheduling priority attached to a microframe as a *scheduling hint*
/// (paper §3.3): derived from the CDAG (critical-path microthreads get
/// higher priority) or supplied by the programmer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Priority(pub i32);

impl Priority {
    /// Neutral priority for frames without hints.
    pub const NORMAL: Priority = Priority(0);
    /// Priority used for frames identified as on the critical path.
    pub const CRITICAL: Priority = Priority(100);
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// Scheduling hints a CDAG analysis (or the programmer) may attach to a
/// microframe.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SchedulingHint {
    /// Execution priority.
    pub priority: Priority,
    /// Prefer executing on the site already holding the frame (set for
    /// frames with large parameter payloads, where migration is costly).
    pub sticky: bool,
}

impl SchedulingHint {
    /// Hint marking a critical-path frame.
    pub fn critical() -> Self {
        SchedulingHint {
            priority: Priority::CRITICAL,
            sticky: false,
        }
    }
}

/// Queue discipline used by the scheduling manager.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum QueuePolicy {
    /// First in, first out — the paper's local policy (avoids starvation).
    #[default]
    Fifo,
    /// Last in, first out — the paper's help-reply policy (latency hiding:
    /// the most recently enqueued frame is least likely to be needed
    /// locally soon).
    Lifo,
    /// Highest [`Priority`] first, FIFO among equals.
    Priority,
}

impl QueuePolicy {
    /// Take the next item off `q`: Fifo the oldest, Lifo the newest (both
    /// O(1)), Priority the item with the highest `key`, oldest among
    /// equals. `key` is consulted only by Priority; it is generic so the
    /// runtime's [`Priority`] hints and the simulator's i64 b-levels
    /// share this one pop.
    pub fn pop<T, K: Ord>(self, q: &mut VecDeque<T>, key: impl Fn(&T) -> K) -> Option<T> {
        match self {
            QueuePolicy::Fifo => q.pop_front(),
            QueuePolicy::Lifo => q.pop_back(),
            QueuePolicy::Priority => {
                let best = q
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, t)| self.rank(*i, key(t)))?
                    .0;
                q.remove(best)
            }
        }
    }

    /// Rank of the item at queue position `idx` with priority `key` in
    /// this discipline's order: [`QueuePolicy::pop`] takes the highest.
    /// For callers that rank by another criterion first and fall back to
    /// the queue order on ties (help grants ranked by locality).
    pub fn rank<K: Ord>(self, idx: usize, key: K) -> (Option<K>, i64) {
        let idx = idx as i64;
        match self {
            QueuePolicy::Fifo => (None, -idx),
            QueuePolicy::Lifo => (None, idx),
            QueuePolicy::Priority => (Some(key), -idx),
        }
    }
}

impl fmt::Display for QueuePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::Lifo => "lifo",
            QueuePolicy::Priority => "priority",
        })
    }
}

/// A help-request candidate as the asking site sees it: `(site id,
/// busyness, last gossiped coordinate)`.
pub type Candidate<I> = (I, u64, Option<Coord>);

/// Sort `candidates` nearest-first by the RTT `me` predicts to each;
/// candidates without a coordinate rank last, ties go to the lower id.
/// Returns `false` — leaving the order untouched — unless `me` has
/// converged and at least one candidate has a coordinate; callers then
/// keep their uniform selection.
pub fn rank_by_proximity<I: Ord>(me: &VivaldiState, candidates: &mut [Candidate<I>]) -> bool {
    if !me.converged() || !candidates.iter().any(|c| c.2.is_some()) {
        return false;
    }
    let dist = |c: &Option<Coord>| c.as_ref().map_or(f64::INFINITY, |c| me.predict_ms(c));
    candidates.sort_by(|a, b| {
        dist(&a.2)
            .partial_cmp(&dist(&b.2))
            .unwrap_or(Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    true
}

/// Choose whom an idle site asks for work (paper §3.3). `candidates`
/// are the eligible peers in ascending id order. The busiest wins if its
/// busyness is above zero (the last of equal maxima). With no load
/// signal the site rotates its counter `rr` over all candidates — or,
/// once [`rank_by_proximity`] applies, over the nearest three: a close
/// peer's reply arrives while a distant one's would still be in flight,
/// and rotating keeps one close neighbour from absorbing every idle
/// site's requests.
pub fn pick_help_target<I: Ord + Copy>(
    candidates: &mut [Candidate<I>],
    me: &VivaldiState,
    rr: &mut usize,
) -> Option<I> {
    let &(busiest, load, _) = candidates.iter().max_by_key(|c| c.1)?;
    if load > 0 {
        return Some(busiest);
    }
    let pool = if rank_by_proximity(me, candidates) {
        candidates.len().min(3)
    } else {
        candidates.len()
    };
    let target = candidates[*rr % pool].0;
    *rr = rr.wrapping_add(1);
    Some(target)
}

/// The three concepts the paper discusses for creating unique logical site
/// ids for joining sites (§4, cluster manager).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum IdAllocStrategy {
    /// One central contact site hands out ids. Simple, but a central point
    /// of failure: if it leaves, no new site can ever join.
    #[default]
    CentralServer,
    /// Several id servers each receive a contingent of free ids at their
    /// own sign-on and hand them out; an exhausted contingent triggers a
    /// broadcast to re-split the id space.
    Contingents {
        /// Number of ids in each contingent handed to a new id server.
        chunk: u32,
    },
    /// A fixed number `k` of id servers; server `i` (0-based) emits ids
    /// congruent to its own slot modulo `k` — no coordination ever needed.
    Modulo {
        /// Number of id servers sharing the id space.
        servers: u32,
    },
}

/// What a program's frontend does when one of its microframes is
/// *poisoned* — quarantined after a handler panic, an application error,
/// or retry-budget exhaustion.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FailurePolicy {
    /// Fail the whole program: `wait()` returns an error naming the
    /// frame, microthread and cause, and the program is terminated
    /// cluster-wide.
    #[default]
    FailFast,
    /// Report the poisoned frame through the I/O manager and keep the
    /// rest of the program running; frames depending on the lost result
    /// will never fire (the stuck-program watchdog eventually reports the
    /// program if its result depended on the skipped frame).
    SkipFrame,
}

impl fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailurePolicy::FailFast => "fail-fast",
            FailurePolicy::SkipFrame => "skip-frame",
        })
    }
}

/// Which microframes of a program a [`ReplicationPolicy`] applies to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ReplicaSelector {
    /// Every microframe of the program (except the hidden result frame).
    #[default]
    All,
    /// Only microframes firing the given microthread index. Lets a
    /// program replicate its pure leaf compute while joins/reductions —
    /// whose side effects (frame creation, allocation) should run once —
    /// stay unreplicated.
    Thread(u32),
}

impl ReplicaSelector {
    /// Does this selector cover microthread index `thread`?
    pub fn covers(&self, thread: u32) -> bool {
        match self {
            ReplicaSelector::All => true,
            ReplicaSelector::Thread(t) => *t == thread,
        }
    }
}

impl fmt::Display for ReplicaSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaSelector::All => f.write_str("all"),
            ReplicaSelector::Thread(t) => write!(f, "thread({t})"),
        }
    }
}

/// Per-program defence against silent data corruption and stragglers:
/// how (and whether) selected microframes are dispatched more than once.
///
/// `Replicate` executes each covered frame on `k` distinct sites and
/// *votes* on the produced results before any consumer slot fills —
/// a lying site (bit-flipped result) is outvoted at k ≥ 3, and a k = 2
/// tie triggers a tie-breaking re-execution on a fresh site. `Hedge`
/// dispatches once, then duplicates the frame to a second site if no
/// result arrived within `delay`; the first result wins and the loser
/// is fenced by the first-write-wins memory invariants.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReplicationPolicy {
    /// Execute every frame exactly once (the paper's baseline).
    #[default]
    Off,
    /// Execute covered frames on `k` distinct sites and vote on results.
    Replicate {
        /// Number of replicas (clamped to ≥ 2 by the runtime).
        k: u8,
        /// Which microframes are replicated.
        selector: ReplicaSelector,
    },
    /// Duplicate-dispatch covered frames that straggle past `delay`.
    Hedge {
        /// How long a dispatched frame may straggle before a hedge
        /// replica is sent to another site.
        delay: std::time::Duration,
        /// Which microframes are hedged.
        selector: ReplicaSelector,
    },
}

impl ReplicationPolicy {
    /// Convenience: replicate every frame `k` times.
    pub fn replicate(k: u8) -> Self {
        ReplicationPolicy::Replicate {
            k,
            selector: ReplicaSelector::All,
        }
    }

    /// Convenience: hedge every frame after `delay`.
    pub fn hedge(delay: std::time::Duration) -> Self {
        ReplicationPolicy::Hedge {
            delay,
            selector: ReplicaSelector::All,
        }
    }

    /// Is any replication/hedging active at all?
    pub fn is_off(&self) -> bool {
        matches!(self, ReplicationPolicy::Off)
    }
}

impl fmt::Display for ReplicationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationPolicy::Off => f.write_str("off"),
            ReplicationPolicy::Replicate { k, selector } => {
                write!(f, "replicate(k={k}, {selector})")
            }
            ReplicationPolicy::Hedge { delay, selector } => {
                write!(f, "hedge({}us, {selector})", delay.as_micros())
            }
        }
    }
}

impl fmt::Display for IdAllocStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdAllocStrategy::CentralServer => f.write_str("central"),
            IdAllocStrategy::Contingents { chunk } => write!(f, "contingents({chunk})"),
            IdAllocStrategy::Modulo { servers } => write!(f, "modulo({servers})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(Priority::CRITICAL > Priority::NORMAL);
        assert!(Priority(-5) < Priority::NORMAL);
    }

    #[test]
    fn defaults_match_paper() {
        // Paper: FIFO locally, LIFO for help replies; central id server is
        // the baseline concept.
        assert_eq!(QueuePolicy::default(), QueuePolicy::Fifo);
        assert_eq!(IdAllocStrategy::default(), IdAllocStrategy::CentralServer);
        assert_eq!(SchedulingHint::default().priority, Priority::NORMAL);
    }

    #[test]
    fn displays() {
        assert_eq!(QueuePolicy::Lifo.to_string(), "lifo");
        assert_eq!(
            IdAllocStrategy::Contingents { chunk: 64 }.to_string(),
            "contingents(64)"
        );
        assert_eq!(
            IdAllocStrategy::Modulo { servers: 4 }.to_string(),
            "modulo(4)"
        );
    }

    #[test]
    fn queue_pop_order_per_policy() {
        // Keys above i32::MAX: the simulator's b-levels can get there.
        let big = i64::from(i32::MAX) + 1;
        let pushed = [("a", 5), ("b", big), ("c", big), ("d", -1)];
        let cases = [
            (QueuePolicy::Fifo, ["a", "b", "c", "d"]),
            (QueuePolicy::Lifo, ["d", "c", "b", "a"]),
            (QueuePolicy::Priority, ["b", "c", "a", "d"]),
        ];
        for (policy, want) in cases {
            let mut q: VecDeque<(&str, i64)> = pushed.into_iter().collect();
            let got: Vec<&str> = std::iter::from_fn(|| policy.pop(&mut q, |t| t.1))
                .map(|t| t.0)
                .collect();
            assert_eq!(got, want, "{policy}");
        }
    }

    fn converged_at_origin() -> VivaldiState {
        VivaldiState {
            coord: Coord {
                err: 0.1,
                ..Coord::origin()
            },
            samples: 10,
            abs_error_ms: 0.0,
        }
    }

    fn at(x: f64) -> Option<Coord> {
        Some(Coord {
            x,
            ..Coord::origin()
        })
    }

    #[test]
    fn busiest_wins_and_a_tie_goes_to_the_highest_id() {
        let mut rr = 0;
        let mut c = [(1u32, 3, None), (2, 7, None), (3, 7, None), (4, 0, None)];
        let pick = pick_help_target(&mut c, &converged_at_origin(), &mut rr);
        assert_eq!(pick, Some(3));
        assert_eq!(rr, 0, "a load-driven pick leaves the rotation alone");
    }

    #[test]
    fn zero_load_rotates_over_all_candidates() {
        let me = VivaldiState::default();
        let mut rr = 0;
        let mut c: Vec<Candidate<u32>> = (1..=5).map(|i| (i, 0, at(f64::from(i)))).collect();
        let picks: Vec<u32> = (0..6)
            .map(|_| pick_help_target(&mut c, &me, &mut rr).unwrap())
            .collect();
        assert_eq!(picks, [1, 2, 3, 4, 5, 1]);
        assert_eq!(pick_help_target::<u32>(&mut [], &me, &mut rr), None);
    }

    #[test]
    fn nearest_three_pool_only_after_convergence() {
        // Ids ascending, predicted distance descending: 5 is nearest.
        let cands = || -> Vec<Candidate<u32>> {
            (1..=5)
                .map(|i| (i, 0, at(f64::from(10 * (6 - i)))))
                .collect()
        };
        let run = |me: &VivaldiState| -> Vec<u32> {
            let mut rr = 0;
            (0..5)
                .map(|_| pick_help_target(&mut cands(), me, &mut rr).unwrap())
                .collect()
        };
        let warming_up = VivaldiState {
            samples: 9,
            ..converged_at_origin()
        };
        assert_eq!(run(&warming_up), [1, 2, 3, 4, 5]);
        assert_eq!(run(&converged_at_origin()), [5, 4, 3, 5, 4]);
    }

    #[test]
    fn coordless_candidates_rank_last() {
        let me = converged_at_origin();
        let mut c = [
            (1u32, 0, None),
            (2, 0, at(30.0)),
            (3, 0, None),
            (4, 0, at(20.0)),
        ];
        assert!(rank_by_proximity(&me, &mut c));
        assert_eq!(c.map(|c| c.0), [4, 2, 1, 3]);
        // Nobody gossiped a coordinate: order untouched, uniform fallback.
        let mut c = [(2u32, 0, None), (1, 0, None)];
        assert!(!rank_by_proximity(&me, &mut c));
        assert_eq!(c.map(|c| c.0), [2, 1]);
    }

    #[test]
    fn replication_defaults_off() {
        assert_eq!(ReplicationPolicy::default(), ReplicationPolicy::Off);
        assert!(ReplicationPolicy::Off.is_off());
        assert!(!ReplicationPolicy::replicate(3).is_off());
        assert_eq!(ReplicaSelector::default(), ReplicaSelector::All);
    }

    #[test]
    fn replica_selector_covers() {
        assert!(ReplicaSelector::All.covers(0));
        assert!(ReplicaSelector::All.covers(7));
        assert!(ReplicaSelector::Thread(2).covers(2));
        assert!(!ReplicaSelector::Thread(2).covers(3));
    }

    #[test]
    fn replication_displays() {
        assert_eq!(ReplicationPolicy::Off.to_string(), "off");
        assert_eq!(
            ReplicationPolicy::replicate(3).to_string(),
            "replicate(k=3, all)"
        );
        assert_eq!(
            ReplicationPolicy::Hedge {
                delay: std::time::Duration::from_millis(50),
                selector: ReplicaSelector::Thread(1),
            }
            .to_string(),
            "hedge(50000us, thread(1))"
        );
    }
}
