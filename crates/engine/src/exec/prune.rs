//! Zone-map scan pruning (DESIGN.md §14): per-morsel predicate verdicts
//! from sealed [`ZoneMap`] summaries, through the one [`ScanPruner`] the one
//! conjunct loop (`filter::Conjuncts`) consults per morsel, under either
//! executor, before any column byte is streamed. There is no other protocol.
//!
//! The prunable predicate forms are exactly the bytecode peephole's
//! [`Quick`] shapes — `col <cmp> const`, dictionary membership, numeric
//! `IN`, `BETWEEN` — interpreted here against a morsel's `(min, max)` slot
//! range or presence bitmap instead of its rows. Every verdict is
//! three-valued and *fail-closed*: anything unresolvable (no quick form, a
//! column that is not Arc-identical to a sealed table column, a span off
//! the sealed grid) is [`Verdict::Unknown`], which prunes nothing.
//!
//! Soundness: zone ranges and presence sets are conservative supersets of
//! the rows they cover (chunk unions may overhang a smaller morsel), and
//! the quick forms are monotone in the slot encoding (`fa` rescale factors
//! are positive powers of ten), so `True` means *every* covered row
//! satisfies the conjunct and `False` means *none* does. Pruning therefore
//! never changes survivors — only which bytes get streamed to find them.

use std::ops::Range;
use std::sync::Arc;

use super::bytecode::{Program, Quick};
use super::filter::Pred;
use crate::eval;
use crate::expr::BinOp;
use wimpi_storage::{Table, ZoneMap};

/// What a zone summary proves about one conjunct over one morsel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Every row in the morsel satisfies the conjunct: skip evaluating it.
    True,
    /// No row can satisfy it: skip the whole morsel.
    False,
    /// The summary proves nothing: evaluate normally.
    Unknown,
}

impl Verdict {
    fn from_bool(b: bool) -> Verdict {
        if b {
            Verdict::True
        } else {
            Verdict::False
        }
    }

    /// Three-valued AND: `False` dominates, `True` is neutral.
    fn and(self, o: Verdict) -> Verdict {
        match (self, o) {
            (Verdict::False, _) | (_, Verdict::False) => Verdict::False,
            (Verdict::True, v) | (v, Verdict::True) => v,
            _ => Verdict::Unknown,
        }
    }
}

/// One quick predicate resolved against a sealed table column.
struct QuickZone<'a> {
    /// The table column's schema name — the zone map's lookup key.
    col: &'a str,
    kind: Kind<'a>,
}

enum Kind<'a> {
    Cmp { op: BinOp, fa: i128, rhs: i128 },
    Dict { mask: &'a [bool] },
    In { list: &'a [i64], negated: bool },
    Range { fa_lo: i128, lo: i128, fa_hi: i128, hi: i128 },
}

impl QuickZone<'_> {
    fn verdict(&self, zones: &ZoneMap, rows: &Range<usize>) -> Verdict {
        match &self.kind {
            Kind::Cmp { op, fa, rhs } => match zones.range_over(self.col, rows.clone()) {
                Some((min, max)) if *fa > 0 => cmp_verdict(*op, *fa, *rhs, min, max),
                _ => Verdict::Unknown,
            },
            Kind::Dict { mask } => match zones.presence_over(self.col, rows.clone()) {
                Some(presence) => dict_verdict(mask, &presence),
                None => Verdict::Unknown,
            },
            Kind::In { list, negated } => match zones.range_over(self.col, rows.clone()) {
                Some((min, max)) => {
                    if min == max {
                        Verdict::from_bool(list.contains(&min) != *negated)
                    } else if !list.iter().any(|&v| min <= v && v <= max) {
                        // No list element can occur: membership is false for
                        // every row, so the conjunct is `negated` everywhere.
                        Verdict::from_bool(*negated)
                    } else {
                        Verdict::Unknown
                    }
                }
                None => Verdict::Unknown,
            },
            Kind::Range { fa_lo, lo, fa_hi, hi } => {
                match zones.range_over(self.col, rows.clone()) {
                    Some((min, max)) if *fa_lo > 0 && *fa_hi > 0 => {
                        let (min, max) = (min as i128, max as i128);
                        if min * fa_lo >= *lo && max * fa_hi <= *hi {
                            Verdict::True
                        } else if max * fa_lo < *lo || min * fa_hi > *hi {
                            Verdict::False
                        } else {
                            Verdict::Unknown
                        }
                    }
                    _ => Verdict::Unknown,
                }
            }
        }
    }
}

/// `col <op> rhs` over a morsel whose slots all lie in `[min, max]`. The
/// rescale factor `fa` is a positive power of ten, so `v ↦ v·fa` is
/// monotone and endpoint evaluations bound every row's outcome.
fn cmp_verdict(op: BinOp, fa: i128, rhs: i128, min: i64, max: i64) -> Verdict {
    let ev = |v: i64| eval::cmp_ord(op, (v as i128 * fa).cmp(&rhs));
    if min == max {
        return Verdict::from_bool(ev(min));
    }
    match op {
        // Downward-closed: true at the max ⇒ true everywhere below it.
        BinOp::Lt | BinOp::Le if ev(max) => Verdict::True,
        BinOp::Lt | BinOp::Le if !ev(min) => Verdict::False,
        // Upward-closed: true at the min ⇒ true everywhere above it.
        BinOp::Gt | BinOp::Ge if ev(min) => Verdict::True,
        BinOp::Gt | BinOp::Ge if !ev(max) => Verdict::False,
        BinOp::Eq if rhs < min as i128 * fa || rhs > max as i128 * fa => Verdict::False,
        BinOp::Ne if rhs < min as i128 * fa || rhs > max as i128 * fa => Verdict::True,
        _ => Verdict::Unknown,
    }
}

/// Dictionary membership over the union of presence bitmaps: the present
/// codes are a superset of the codes actually in the morsel, so "all
/// present codes pass" proves every row passes and "none passes" proves
/// none does.
fn dict_verdict(mask: &[bool], presence: &[u64]) -> Verdict {
    let (mut any, mut all, mut seen) = (false, true, false);
    for (w, &word) in presence.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let code = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            seen = true;
            match mask.get(code) {
                Some(true) => any = true,
                Some(false) => all = false,
                None => return Verdict::Unknown,
            }
        }
    }
    if !seen {
        Verdict::Unknown
    } else if all {
        Verdict::True
    } else if !any {
        Verdict::False
    } else {
        Verdict::Unknown
    }
}

/// One compiled conjunct's prune plan, mirroring [`Pred`]'s shape.
enum ConjZone<'a> {
    /// No quick form resolved against the table: always `Unknown`.
    Opaque,
    One(QuickZone<'a>),
    /// OR of AND-chains; unresolved chain members stay `None` (`Unknown`).
    AnyOf(Vec<Vec<Option<QuickZone<'a>>>>),
}

impl ConjZone<'_> {
    fn verdict(&self, zones: &ZoneMap, rows: &Range<usize>) -> Verdict {
        match self {
            ConjZone::Opaque => Verdict::Unknown,
            ConjZone::One(q) => q.verdict(zones, rows),
            ConjZone::AnyOf(chains) => {
                let mut all_false = true;
                for chain in chains {
                    let mut v = Verdict::True;
                    for qz in chain {
                        v = v.and(qz.as_ref().map_or(Verdict::Unknown, |q| q.verdict(zones, rows)));
                        if v == Verdict::False {
                            break;
                        }
                    }
                    match v {
                        Verdict::True => return Verdict::True,
                        Verdict::False => {}
                        Verdict::Unknown => all_false = false,
                    }
                }
                if all_false {
                    Verdict::False
                } else {
                    Verdict::Unknown
                }
            }
        }
    }

    /// Whether this plan can ever return a non-`Unknown` verdict under the
    /// given zone map (the column it reads actually has the summary kind
    /// its quick form consults).
    fn can_decide(&self, zones: &ZoneMap) -> bool {
        let quick_decides = |q: &QuickZone| {
            zones.column(q.col).is_some_and(|c| match q.kind {
                Kind::Dict { .. } => c.presence.is_some(),
                _ => c.ranges.is_some(),
            })
        };
        match self {
            ConjZone::Opaque => false,
            ConjZone::One(q) => quick_decides(q),
            ConjZone::AnyOf(chains) => chains.iter().flatten().flatten().any(quick_decides),
        }
    }
}

/// Resolves one program's quick form against the table, deriving the zone
/// map's column name by `Arc` identity — the only link that survives the
/// zero-copy `Relation::from_table` plumbing and is immune to renames.
fn quick_zone<'a>(prog: &'a Program, table: &'a Table) -> Option<QuickZone<'a>> {
    let (slot, kind) = match prog.quick()? {
        Quick::CmpConst { col, op, fa, rhs } => (*col, Kind::Cmp { op: *op, fa: *fa, rhs: *rhs }),
        Quick::Dict { col, mask } => (*col, Kind::Dict { mask: prog.mask(*mask as usize) }),
        Quick::InFixed { col, list, negated } => {
            (*col, Kind::In { list: prog.list(*list as usize), negated: *negated })
        }
        Quick::RangeFixed { col, fa_lo, lo, fa_hi, hi } => {
            (*col, Kind::Range { fa_lo: *fa_lo, lo: *lo, fa_hi: *fa_hi, hi: *hi })
        }
    };
    let arc = prog.col(slot as usize);
    let j = (0..table.num_columns()).find(|&j| Arc::ptr_eq(arc, table.column(j)))?;
    Some(QuickZone { col: &table.schema().fields()[j].name, kind })
}

fn conj_zone<'a>(pred: &'a Pred, table: &'a Table) -> ConjZone<'a> {
    match pred {
        Pred::Const(_) => ConjZone::Opaque,
        Pred::One(p) => quick_zone(p, table).map_or(ConjZone::Opaque, ConjZone::One),
        Pred::AnyOf(chains) => ConjZone::AnyOf(
            chains
                .iter()
                .map(|chain| chain.iter().map(|p| quick_zone(p, table)).collect())
                .collect(),
        ),
    }
}

/// A per-scan pruner: the sealed zone map plus one prune plan per filter
/// conjunct, in the executors' conjunct order. Borrows only shared state,
/// so the morsel closures can consult it from any worker.
pub(crate) struct ScanPruner<'a> {
    zones: &'a ZoneMap,
    conjuncts: Vec<ConjZone<'a>>,
}

impl<'a> ScanPruner<'a> {
    /// Builds a pruner when pruning can possibly pay off: the table has
    /// sealed zones, the scanned relation is the table's own rows (so morsel
    /// offsets index the sealed grid), and at least one conjunct's quick
    /// form reads a summarized column. `None` means "run unpruned".
    pub(crate) fn new(table: &'a Table, conjuncts: &'a [Pred], nrows: usize) -> Option<Self> {
        let zones = table.zones()?;
        if nrows != table.num_rows() {
            return None;
        }
        let plans: Vec<ConjZone<'a>> = conjuncts.iter().map(|p| conj_zone(p, table)).collect();
        let decides = plans.iter().any(|p| p.can_decide(zones));
        decides.then_some(ScanPruner { zones, conjuncts: plans })
    }

    /// Per-conjunct verdicts for one morsel, in conjunct order.
    pub(crate) fn verdicts(&self, rows: &Range<usize>) -> Vec<Verdict> {
        self.conjuncts.iter().map(|c| c.verdict(self.zones, rows)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, Expr};
    use crate::relation::Relation;
    use wimpi_storage::{Column, DataType, Field, Schema, Value};

    /// 300 rows sealed on a 100-row zone grid: `k` ascending 0..300, `p`
    /// decimal mantissas 5·i at scale 2, `m` chunk-segregated modes, `f`
    /// floats (never summarized).
    fn table() -> Table {
        let modes: Vec<&str> = (0..300).map(|i| ["AIR", "RAIL", "SHIP"][i / 100]).collect();
        Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("p", DataType::Decimal(2)),
                Field::new("m", DataType::Utf8),
                Field::new("f", DataType::Float64),
            ]),
            vec![
                Column::Int64((0..300).collect()),
                Column::Decimal((0..300).map(|i| i * 5).collect(), 2),
                Column::Str(modes.into_iter().collect()),
                Column::Float64((0..300).map(|i| i as f64).collect()),
            ],
        )
        .unwrap()
        .with_zone_maps_at(100)
    }

    fn compile(rel: &Relation, exprs: &[Expr]) -> Vec<Pred> {
        exprs
            .iter()
            .map(|e| super::super::filter::compile_conjunct(e, rel).expect("well-typed").0)
            .collect()
    }

    fn verdicts_of(t: &Table, e: Expr, spans: &[Range<usize>]) -> Vec<Verdict> {
        let rel = Relation::from_table(t, None).unwrap();
        let preds = compile(&rel, std::slice::from_ref(&e));
        let pruner = ScanPruner::new(t, &preds, t.num_rows()).expect("prunable");
        spans.iter().map(|r| pruner.verdicts(r)[0]).collect()
    }

    #[test]
    fn comparison_verdicts_follow_the_range() {
        let t = table();
        assert_eq!(
            verdicts_of(&t, col("k").lt(lit(100i64)), &[0..100, 100..200, 50..150]),
            [Verdict::True, Verdict::False, Verdict::Unknown]
        );
        assert_eq!(
            verdicts_of(&t, col("k").gte(lit(200i64)), &[200..300, 0..100, 150..250]),
            [Verdict::True, Verdict::False, Verdict::Unknown]
        );
        // Equality: provably absent vs possibly present vs a pinned chunk.
        assert_eq!(
            verdicts_of(&t, col("k").eq(lit(150i64)), &[0..100, 100..200]),
            [Verdict::False, Verdict::Unknown]
        );
        assert_eq!(
            verdicts_of(&t, col("k").neq(lit(150i64)), &[0..100, 100..200]),
            [Verdict::True, Verdict::Unknown]
        );
        // Decimal compares run over mantissas: p < 5.00 keeps only i < 100.
        let five = wimpi_storage::Decimal64::from_str_scale("5.00", 2).unwrap();
        assert_eq!(
            verdicts_of(&t, col("p").lt(lit(five)), &[0..100, 100..200]),
            [Verdict::True, Verdict::False]
        );
    }

    #[test]
    fn between_and_in_verdicts() {
        let t = table();
        let between = col("k").gte(lit(100i64)).and(col("k").lte(lit(199i64)));
        assert_eq!(
            verdicts_of(&t, between, &[100..200, 0..100, 50..150]),
            [Verdict::True, Verdict::False, Verdict::Unknown]
        );
        let in_list = col("k").in_list(vec![Value::I64(7), Value::I64(250)]);
        assert_eq!(
            verdicts_of(&t, in_list, &[100..200, 0..100]),
            [Verdict::False, Verdict::Unknown]
        );
    }

    #[test]
    fn dictionary_presence_verdicts() {
        let t = table();
        assert_eq!(
            verdicts_of(&t, col("m").eq(lit("AIR")), &[0..100, 100..200, 50..150]),
            [Verdict::True, Verdict::False, Verdict::Unknown]
        );
    }

    #[test]
    fn or_chains_combine_disjunct_verdicts() {
        let t = table();
        let e = col("k").lt(lit(100i64)).or(col("m").eq(lit("RAIL")));
        assert_eq!(
            verdicts_of(&t, e, &[0..100, 100..200, 200..300]),
            [Verdict::True, Verdict::True, Verdict::False]
        );
    }

    #[test]
    fn pruner_fails_closed() {
        let t = table();
        let rel = Relation::from_table(&t, None).unwrap();
        // Floats have no zone summaries: nothing decidable, no pruner.
        let preds = compile(&rel, &[col("f").lt(lit(10.0))]);
        assert!(ScanPruner::new(&t, &preds, t.num_rows()).is_none());
        // A relation that is not the table's own rows gets no pruner.
        let preds = compile(&rel, &[col("k").lt(lit(100i64))]);
        assert!(ScanPruner::new(&t, &preds, 100).is_none());
        // No sealed zones, no pruner.
        let bare = table();
        let unsealed = bare.with_replaced_column(0, Column::Int64((0..300).collect())).unwrap();
        let rel2 = Relation::from_table(&unsealed, None).unwrap();
        let preds = compile(&rel2, &[col("k").lt(lit(100i64))]);
        assert!(ScanPruner::new(&unsealed, &preds, 300).is_none());
        // Off-grid spans stay Unknown rather than pruning.
        let off_grid = std::slice::from_ref(&(0..1000));
        assert_eq!(verdicts_of(&t, col("k").lt(lit(0i64)), off_grid), [Verdict::Unknown]);
    }
}
