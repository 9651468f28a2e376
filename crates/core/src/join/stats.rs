//! The StandOff join counters, declared once.
//!
//! Every counter the join executor keeps is one row of the table at the
//! bottom of this file. Each row yields a [`JoinStats`] field, a
//! registry name (`join.<field>`, the key `stats` dumps), a key in the
//! per-operator profile JSON's `join` object, and a fragment of the
//! `explain analyze` line. The scan and merge kernels count straight
//! into a [`JoinStats`] held in the join scratch, so the per-operator,
//! per-session and registry views all fold the same values.

use crate::obs::{Counter, MetricsRegistry};

/// When a counter shows on an `explain analyze` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shown {
    /// On every join operator.
    Always,
    /// Scan-kernel detail: the whole group shows once any of its
    /// counters is nonzero, so gather-only lines stay short.
    Kernel,
    /// Only when this counter itself is nonzero.
    NonZero,
}

/// One row of the counter table.
#[derive(Clone, Copy, Debug)]
pub struct CounterDef {
    /// Registry name: `join.<field>`.
    pub name: &'static str,
    /// Key in the profile JSON's `join` object.
    pub json: &'static str,
    /// `explain analyze` fragment; `{}` stands for the value.
    pub label: &'static str,
    pub shown: Shown,
}

impl CounterDef {
    /// The `explain analyze` fragment for `value`.
    pub fn render(&self, value: u64) -> String {
        self.label.replacen("{}", &value.to_string(), 1)
    }
}

macro_rules! join_counters {
    ($( $(#[$doc:meta])* $field:ident => $json:literal, $shown:ident, $label:literal; )*) => {
        /// Counters of the StandOff join executor's fast-path decisions.
        ///
        /// They exist so tests (and curious operators) can assert
        /// *mechanism*, not just timing: that a pushdown-guaranteed step
        /// really skipped its trailing self-axis pass, that a
        /// single-fragment scope really skipped the result sort, which
        /// side of the candidate-intersection cost model an operator
        /// landed on, and which scan kernel ran.
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct JoinStats {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl JoinStats {
            /// Number of counters.
            pub const COUNT: usize = [$(stringify!($field)),*].len();

            /// The counter table, in declaration order.
            pub const COUNTERS: [CounterDef; Self::COUNT] = [$(
                CounterDef {
                    name: concat!("join.", stringify!($field)),
                    json: $json,
                    label: $label,
                    shown: Shown::$shown,
                },
            )*];

            /// Every counter's value, in [`JoinStats::COUNTERS`] order.
            pub fn values(&self) -> [u64; Self::COUNT] {
                [$(self.$field),*]
            }

            /// Fold another counter set into this one.
            pub fn merge(&mut self, other: JoinStats) {
                $( self.$field += other.$field; )*
            }
        }
    };
}

join_counters! {
    /// Candidate intersections taken through the node view (gather).
    candidate_node_view => "node_view", Always, " node-view={}";
    /// Candidate intersections taken as full index scans.
    candidate_scans => "scans", Always, " scan={}";
    /// Result merges that had to sort (multi-fragment / multi-layer).
    result_sorts => "result_sorts", Always, " sorts={}";
    /// Result merges skipped because the scope was a single fragment
    /// (or trivially small) and the join output was already in
    /// `(iter, document-order)`.
    result_sorts_elided => "result_sorts_elided", Always, " (elided {})";
    /// Trailing `self::test` passes executed.
    post_filters => "post_filters", Always, " post={}";
    /// Trailing `self::test` passes skipped (plan-guaranteed tests).
    post_filters_elided => "post_filters_elided", Always, " (elided {})";
    /// Scan-path intersections that ran with the dense bitset
    /// representation ([`crate::CandidateRepr::Dense`]).
    candidate_repr_dense => "repr_dense", Kernel, " repr dense={}";
    /// Scan-path intersections that ran with the sparse list
    /// representation.
    candidate_repr_sparse => "repr_sparse", Kernel, " sparse={}";
    /// 64-entry chunks the dense candidate-scan kernel processed. Zero
    /// whenever `candidate_repr_dense` is zero.
    candidate_dense_blocks => "dense_blocks", Kernel, " blocks={}";
    /// Morsels dispatched to the intra-query worker pool (0 ⇒ every
    /// scan ran sequentially — the default at `threads = 1`).
    morsels_dispatched => "morsels", Kernel, " morsels={}";
    /// 64-candidate blocks the merge join's branch-free single-active
    /// emission run processed.
    merge_emit_blocks => "emit_blocks", NonZero, " emit-blocks={}";
}

/// Pre-registered registry handles for every join counter, so the join
/// hot path never touches the registry's map lock. Cloning shares the
/// underlying cells.
#[derive(Clone)]
pub struct JoinCounters([Counter; JoinStats::COUNT]);

impl JoinCounters {
    /// Register (or look up) every `join.*` counter in `registry`.
    pub fn register(registry: &MetricsRegistry) -> JoinCounters {
        JoinCounters(std::array::from_fn(|k| {
            registry.counter(JoinStats::COUNTERS[k].name)
        }))
    }

    /// Add one join's counter delta to the registry.
    pub fn record(&self, stats: &JoinStats) {
        for (counter, value) in self.0.iter().zip(stats.values()) {
            if value > 0 {
                counter.add(value);
            }
        }
    }
}
