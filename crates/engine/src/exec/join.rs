//! Hash equi-joins: inner, semi, anti, and left outer — morsel-driven.
//!
//! The right input is the build side (query authors put the smaller relation
//! there, as the TPC-H plans in `wimpi-queries` do). Duplicate build keys are
//! handled with the classic head+next chain layout, avoiding per-key
//! allocations.
//!
//! Parallel runs partition the build by a deterministic key hash: each
//! partition owner scans all build keys and inserts only its own rows, in
//! global row order, so every chain is laid out exactly as the serial build
//! would lay it out (most-recent-first). The probe then walks left-side
//! morsels independently and the per-morsel selections are concatenated in
//! morsel order — the output row order is bit-identical to the serial join
//! at any thread count (see `exec::parallel`).

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

use super::hash::{fx_map, fx_slot, FxMap};
use super::ladder::{self, FromSlots, Verdict};
use super::parallel::{morsel_ranges, run_morsels, run_morsels_spanned, EngineConfig};
use super::{ensure_u32_indexable, key_values};
use crate::error::{EngineError, Result};
use crate::governor::QueryContext;
use crate::plan::JoinType;
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_obs::{MorselSink, MorselSpan, Span, Tracer};
use wimpi_storage::{Column, DataType, DictBuilder};

/// Estimated bytes per build-side row per key in the hash table — the same
/// constant the work profile charges to `hash_bytes`, so the governor's
/// reservations and the cost model agree about what a build "weighs".
const BUILD_BYTES_PER_ROW_KEY: u64 = 16;

/// Synthetic column marking matched rows in a left outer join.
pub const MATCHED_COL: &str = "__matched";

const NONE_ROW: u32 = u32::MAX;

/// Executes a hash join.
#[allow(clippy::too_many_arguments)]
pub fn exec_join(
    left: &Relation,
    right: &Relation,
    on: &[(String, String)],
    join_type: JoinType,
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Relation> {
    if on.is_empty() {
        return Err(EngineError::Plan("join requires at least one key".to_string()));
    }
    ensure_u32_indexable(left.num_rows(), "join (probe side)")?;
    ensure_u32_indexable(right.num_rows(), "join (build side)")?;
    for (l, r) in on {
        let lt = left.data_type(l)?;
        let rt = right.data_type(r)?;
        let joinable =
            |t: DataType| matches!(t, DataType::Int64 | DataType::Int32 | DataType::Date);
        if !joinable(lt) || !joinable(rt) {
            return Err(EngineError::Unsupported(format!(
                "join keys must be integer/date columns, got {l}: {lt} = {r}: {rt}"
            )));
        }
    }
    let lkeys: Vec<Vec<i64>> =
        on.iter().map(|(l, _)| key_values(left.column(l)?.as_ref())).collect::<Result<_>>()?;
    let rkeys: Vec<Vec<i64>> =
        on.iter().map(|(_, r)| key_values(right.column(r)?.as_ref())).collect::<Result<_>>()?;

    let (lsel, rsel) = match on.len() {
        1 => probe::<i64>(cfg, &lkeys, &rkeys, join_type, tracer, ctx, prof),
        2 => probe::<(i64, i64)>(cfg, &lkeys, &rkeys, join_type, tracer, ctx, prof),
        _ => probe::<Vec<i64>>(cfg, &lkeys, &rkeys, join_type, tracer, ctx, prof),
    }?;

    // Work: build inserts + probe lookups are random accesses; the build
    // table footprint informs the LLC model. Charged once from global row
    // counts, so parallel and serial runs record identical profiles.
    prof.rand_accesses += (left.num_rows() + right.num_rows()) as u64;
    prof.cpu_ops += 2 * (left.num_rows() + right.num_rows()) as u64;
    prof.hash_bytes += right.num_rows() as u64 * 16 * on.len() as u64;
    prof.seq_read_bytes += ((left.num_rows() + right.num_rows()) * 8 * on.len()) as u64;

    let out = match join_type {
        JoinType::Inner => {
            let mut fields = left.take(&lsel).fields().to_vec();
            let rtaken = right.take(&rsel);
            fields.extend(rtaken.fields().iter().cloned());
            Relation::new(fields)?
        }
        JoinType::Semi | JoinType::Anti => left.take(&lsel),
        JoinType::LeftOuter => {
            let mut fields = left.take(&lsel).fields().to_vec();
            for (name, c) in right.fields() {
                fields.push((name.clone(), Arc::new(take_optional(c, &rsel))));
            }
            fields.push((
                MATCHED_COL.to_string(),
                Arc::new(Column::Bool(rsel.iter().map(|&r| r != NONE_ROW).collect())),
            ));
            Relation::new(fields)?
        }
    };
    super::filter::charge_gather(left, &out, lsel.len(), prof);
    Ok(out)
}

/// Links build row `row` into its key's chain: `head` maps a key to its most
/// recent build row, `next` threads through the earlier ones.
#[inline]
fn chain<K: Hash + Eq>(head: &mut FxMap<K, u32>, next: &mut [u32], k: K, row: u32) {
    match head.entry(k) {
        Entry::Occupied(mut e) => next[row as usize] = e.insert(row),
        Entry::Vacant(e) => {
            e.insert(row);
        }
    }
}

/// Appends the (left, right) output rows that left row `i` contributes given
/// its head-chain hit — the per-row core shared by the serial and parallel
/// probes.
#[inline]
fn emit_row(
    i: usize,
    hit: Option<u32>,
    next: &[u32],
    join_type: JoinType,
    lsel: &mut Vec<u32>,
    rsel: &mut Vec<u32>,
) {
    match join_type {
        JoinType::Inner => {
            let mut cur = hit;
            while let Some(r) = cur {
                lsel.push(i as u32);
                rsel.push(r);
                cur = (next[r as usize] != NONE_ROW).then(|| next[r as usize]);
            }
        }
        JoinType::Semi => {
            if hit.is_some() {
                lsel.push(i as u32);
            }
        }
        JoinType::Anti => {
            if hit.is_none() {
                lsel.push(i as u32);
            }
        }
        JoinType::LeftOuter => {
            let mut cur = hit;
            if cur.is_none() {
                lsel.push(i as u32);
                rsel.push(NONE_ROW);
            }
            while let Some(r) = cur {
                lsel.push(i as u32);
                rsel.push(r);
                cur = (next[r as usize] != NONE_ROW).then(|| next[r as usize]);
            }
        }
    }
}

/// Builds on the right, probes with the left. Returns selected row ids per
/// side; for semi/anti the right vector is empty; for left outer, unmatched
/// right slots hold `NONE_ROW`.
///
/// When tracing, `build` and `probe` phase spans are attached to the open
/// join span; the probe span gets per-morsel children over the same
/// `morsel_ranges(nleft, morsel_rows)` boundaries on both the serial and the
/// parallel path, so trace structure is identical at any thread count.
///
/// The whole build table is reserved against the query budget up front; when
/// it does not fit, [`partitioned_probe`] degrades to a partitioned build
/// with the same output and trace structure. Worker threads bail out
/// at morsel boundaries once cancellation is signalled (the partial result
/// is discarded — the final checkpoint turns it into `Cancelled`).
fn probe<K: FromSlots + Send + Sync>(
    cfg: &EngineConfig,
    lkeys: &[Vec<i64>],
    rkeys: &[Vec<i64>],
    join_type: JoinType,
    tracer: &Tracer,
    ctx: &QueryContext,
    prof: &mut WorkProfile,
) -> Result<(Vec<u32>, Vec<u32>)> {
    let (nleft, nright) = (lkeys[0].len(), rkeys[0].len());
    let build_bytes = nright as u64 * BUILD_BYTES_PER_ROW_KEY * rkeys.len() as u64;
    let Some(_guard) = ctx.try_reserve(build_bytes) else {
        return partitioned_probe::<K>(cfg, lkeys, rkeys, join_type, tracer, ctx, prof);
    };
    let (lkey, rkey) = (|i| K::at(lkeys, i), |i| K::at(rkeys, i));
    let traced = tracer.is_enabled();
    let sink = tracer.morsel_sink();
    let build_started = traced.then(std::time::Instant::now);
    if cfg.threads <= 1 {
        // Serial fast path: one build map, one probe scan.
        // head: key -> most recent build row; next: chain through earlier rows.
        let mut head: FxMap<K, u32> = fx_map(nright);
        let mut next: Vec<u32> = vec![NONE_ROW; nright];
        for i in 0..nright {
            chain(&mut head, &mut next, rkey(i), i as u32);
        }
        let build_ns = elapsed_ns(&build_started);
        let probe_started = traced.then(std::time::Instant::now);
        let mut lsel = Vec::new();
        let mut rsel = Vec::new();
        // The scan is chunked by morsel boundaries (pure bookkeeping — the
        // iteration order is unchanged) so cancellation is checked per morsel
        // and the serial trace has the same morsel children the parallel
        // probe records.
        for (mi, r) in morsel_ranges(nleft, cfg.morsel_rows).into_iter().enumerate() {
            if ctx.interrupted() {
                break;
            }
            let rows = r.len() as u64;
            let m0 = traced.then(std::time::Instant::now);
            for i in r {
                emit_row(i, head.get(&lkey(i)).copied(), &next, join_type, &mut lsel, &mut rsel);
            }
            if let Some(m0) = m0 {
                let wall_ns = m0.elapsed().as_nanos() as u64;
                sink.record(MorselSpan { index: mi, rows, worker: 0, wall_ns });
            }
        }
        ctx.checkpoint()?;
        attach_phases(tracer, nright, build_ns, nleft, &lsel, &probe_started, sink);
        return Ok((lsel, rsel));
    }

    // Partitioned parallel build: partition owner `p` scans every build key
    // and inserts only the rows routed to `p`, in global row order — all
    // rows of one key share a partition, so each chain is laid out exactly
    // as the serial build lays it out. (No morsel spans here: the partition
    // count follows the thread count, so per-partition children would break
    // trace-structure determinism — and for the same reason the routing is
    // unobservable, so it uses the table hasher, not the fallbacks' SipHash.)
    let nparts = cfg.threads;
    let part_ranges: Vec<Range<usize>> = (0..nparts).map(|p| p..p + 1).collect();
    let built = run_morsels(cfg, &part_ranges, |p, _| {
        let mut head: FxMap<K, u32> = FxMap::default();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        if ctx.interrupted() {
            return (head, edges);
        }
        for i in 0..nright {
            let k = rkey(i);
            if fx_slot(&k, nparts) != p {
                continue;
            }
            match head.entry(k) {
                Entry::Occupied(mut e) => edges.push((i as u32, e.insert(i as u32))),
                Entry::Vacant(e) => {
                    e.insert(i as u32);
                }
            }
        }
        (head, edges)
    });
    let mut next: Vec<u32> = vec![NONE_ROW; nright];
    let mut heads: Vec<FxMap<K, u32>> = Vec::with_capacity(nparts);
    for (head, edges) in built {
        for (row, prev) in edges {
            next[row as usize] = prev;
        }
        heads.push(head);
    }
    let build_ns = elapsed_ns(&build_started);
    let probe_started = traced.then(std::time::Instant::now);

    // Morsel-parallel probe; per-morsel selections concatenate in morsel
    // order, reproducing the serial output order.
    let probe_ranges = morsel_ranges(nleft, cfg.morsel_rows);
    let parts = run_morsels_spanned(cfg, &probe_ranges, &sink, |_, r| {
        let mut lsel = Vec::new();
        let mut rsel = Vec::new();
        if ctx.interrupted() {
            return (lsel, rsel);
        }
        for i in r {
            let k = lkey(i);
            let hit = heads[fx_slot(&k, nparts)].get(&k).copied();
            emit_row(i, hit, &next, join_type, &mut lsel, &mut rsel);
        }
        (lsel, rsel)
    });
    let mut lsel = Vec::new();
    let mut rsel = Vec::new();
    for (l, r) in parts {
        lsel.extend(l);
        rsel.extend(r);
    }
    ctx.checkpoint()?;
    attach_phases(tracer, nright, build_ns, nleft, &lsel, &probe_started, sink);
    Ok((lsel, rsel))
}

/// The degraded build below the resident one, down the shared ladder
/// ([`ladder::descend`]): build and probe one partition of both sides at a
/// time, then splice the per-partition outputs back into global left-row
/// order. An attempt fits when the *largest* partition's build table does —
/// sized from the bucket lengths before anything is staged, so a join that
/// spills stages once.
///
/// Determinism argument: all rows of one key hash to one partition, and each
/// partition inserts its build rows in ascending global row order — so every
/// chain is laid out exactly as the serial build lays it out, and each left
/// row's matches are emitted in the same order the serial probe emits them.
/// The splice then visits left rows 0..nleft in order, which reproduces the
/// serial output byte for byte. Partition choice depends only on row counts
/// and the budget, never on the thread count.
fn partitioned_probe<K: FromSlots>(
    cfg: &EngineConfig,
    lkeys: &[Vec<i64>],
    rkeys: &[Vec<i64>],
    join_type: JoinType,
    tracer: &Tracer,
    ctx: &QueryContext,
    prof: &mut WorkProfile,
) -> Result<(Vec<u32>, Vec<u32>)> {
    const BUILD: usize = 0;
    const PROBE: usize = 1;
    let (nleft, nright) = (lkeys[0].len(), rkeys[0].len());
    let traced = tracer.is_enabled();
    let sink = tracer.morsel_sink();
    let build_started = traced.then(std::time::Instant::now);
    // Linear bookkeeping (partition hashes and buckets, the shared chain
    // array — about 8 B/row) is *measured* but not capped: like selection
    // vectors and materialized outputs it streams sequentially, and only the
    // random-access hash table is what thrashes a wimpy node (the same line
    // the cluster's MemoryModel draws around `hash_bytes`).
    ctx.track((nleft + nright) as u64 * 8);

    let table_bytes = |rows: usize| rows as u64 * BUILD_BYTES_PER_ROW_KEY * rkeys.len() as u64;
    let inputs = [(nright, rkeys), (nleft, lkeys)];
    let (lsel, rsel, build_ns, probe_started) =
        ladder::descend::<K, _>(ctx, prof, "join build", &inputs, |att| {
            let need = table_bytes(att.largest(BUILD));
            if ctx.try_reserve(need).is_none() {
                return Ok(Verdict::Double(need));
            }
            let parts = att.stage()?;
            let build_ns = elapsed_ns(&build_started);
            let probe_started = traced.then(std::time::Instant::now);

            // One partition at a time: build, probe, drop.
            let mut next: Vec<u32> = vec![NONE_ROW; nright];
            let mut part_sels: Vec<(Vec<u32>, Vec<u32>)> = Vec::with_capacity(parts.len());
            for p in parts.iter() {
                let p = p?;
                let _table = ctx.reserve(table_bytes(parts.rows_in(BUILD, p)), "join build")?;
                let mut head: FxMap<K, u32> = fx_map(parts.rows_in(BUILD, p));
                let mut lsel = Vec::new();
                let mut rsel = Vec::new();
                for (row, k) in parts.rows(BUILD, p)? {
                    chain(&mut head, &mut next, k, row);
                }
                for (row, k) in parts.rows(PROBE, p)? {
                    let hit = head.get(&k).copied();
                    emit_row(row as usize, hit, &next, join_type, &mut lsel, &mut rsel);
                }
                part_sels.push((lsel, rsel));
            }

            // Splice back to global left-row order (per-partition outputs are
            // already ascending in the left row id).
            let mut cursors = vec![0usize; parts.len()];
            let mut lsel = Vec::new();
            let mut rsel = Vec::new();
            for i in 0..nleft {
                let p = parts.part_of(PROBE, i);
                let (pl, pr) = &part_sels[p];
                let c = &mut cursors[p];
                while *c < pl.len() && pl[*c] == i as u32 {
                    lsel.push(i as u32);
                    if !pr.is_empty() {
                        rsel.push(pr[*c]);
                    }
                    *c += 1;
                }
            }
            Ok(Verdict::Fit((lsel, rsel, build_ns, probe_started)))
        })?;

    // Identical trace structure to the resident-build paths: the probe span
    // carries one child per left morsel (synthetic here — the fallback
    // probes by partition, but the *structure* must not leak the budget).
    if sink.is_enabled() {
        for (mi, r) in morsel_ranges(nleft, cfg.morsel_rows).into_iter().enumerate() {
            sink.record(MorselSpan { index: mi, rows: r.len() as u64, worker: 0, wall_ns: 0 });
        }
    }
    attach_phases(tracer, nright, build_ns, nleft, &lsel, &probe_started, sink);
    Ok((lsel, rsel))
}

#[inline]
fn elapsed_ns(started: &Option<std::time::Instant>) -> u64 {
    started.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
}

/// Attaches `build` and `probe` phase spans (with the probe's morsel
/// children) to the open join span. No-op when the tracer is disabled.
fn attach_phases(
    tracer: &Tracer,
    nright: usize,
    build_ns: u64,
    nleft: usize,
    lsel: &[u32],
    probe_started: &Option<std::time::Instant>,
    sink: MorselSink,
) {
    if !tracer.is_enabled() {
        return;
    }
    let mut build = Span::leaf("build", "");
    build.rows_in = nright as u64;
    build.rows_out = nright as u64;
    build.wall_ns = build_ns;
    let mut probe = Span::leaf("probe", "");
    probe.rows_in = nleft as u64;
    probe.rows_out = lsel.len() as u64;
    probe.wall_ns = elapsed_ns(probe_started);
    probe.children = sink.into_spans();
    tracer.attach(build);
    tracer.attach(probe);
}

/// Gathers rows, substituting a type default where the index is `NONE_ROW`.
fn take_optional(col: &Column, sel: &[u32]) -> Column {
    match col {
        Column::Int64(v) => Column::Int64(
            sel.iter().map(|&i| if i == NONE_ROW { 0 } else { v[i as usize] }).collect(),
        ),
        Column::Int32(v) => Column::Int32(
            sel.iter().map(|&i| if i == NONE_ROW { 0 } else { v[i as usize] }).collect(),
        ),
        Column::Float64(v) => Column::Float64(
            sel.iter().map(|&i| if i == NONE_ROW { 0.0 } else { v[i as usize] }).collect(),
        ),
        Column::Decimal(v, s) => Column::Decimal(
            sel.iter().map(|&i| if i == NONE_ROW { 0 } else { v[i as usize] }).collect(),
            *s,
        ),
        Column::Date(v) => Column::Date(
            sel.iter().map(|&i| if i == NONE_ROW { 0 } else { v[i as usize] }).collect(),
        ),
        Column::Bool(v) => {
            Column::Bool(sel.iter().map(|&i| i != NONE_ROW && v[i as usize]).collect())
        }
        Column::Str(d) => {
            let mut b = DictBuilder::with_capacity(sel.len());
            for &i in sel {
                b.push(if i == NONE_ROW { "" } else { d.get(i as usize) });
            }
            Column::Str(b.finish())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(pairs: Vec<(&str, Vec<i64>)>) -> Relation {
        Relation::new(
            pairs.into_iter().map(|(n, v)| (n.to_string(), Arc::new(Column::Int64(v)))).collect(),
        )
        .unwrap()
    }

    fn run(l: &Relation, r: &Relation, on: Vec<(&str, &str)>, jt: JoinType) -> Relation {
        let on: Vec<(String, String)> =
            on.into_iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
        let mut p = WorkProfile::new();
        let ctx = QueryContext::default();
        exec_join(l, r, &on, jt, &mut p, &EngineConfig::serial(), Tracer::off(), &ctx).unwrap()
    }

    /// Joins on `lk = rk` under `cfg` and `ctx`; the profile comes back even
    /// when the join fails.
    fn join(
        l: &Relation,
        r: &Relation,
        jt: JoinType,
        cfg: &EngineConfig,
        ctx: &QueryContext,
    ) -> (Result<Relation>, WorkProfile) {
        let mut p = WorkProfile::new();
        let on = [("lk".to_string(), "rk".to_string())];
        let out = exec_join(l, r, &on, jt, &mut p, cfg, Tracer::off(), ctx);
        (out, p)
    }

    #[test]
    fn inner_join_matches_keys() {
        let l = rel(vec![("lk", vec![1, 2, 3, 2]), ("lv", vec![10, 20, 30, 40])]);
        let r = rel(vec![("rk", vec![2, 4]), ("rv", vec![200, 400])]);
        let out = run(&l, &r, vec![("lk", "rk")], JoinType::Inner);
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column("lv").unwrap().as_i64().unwrap(), &[20, 40]);
        assert_eq!(out.column("rv").unwrap().as_i64().unwrap(), &[200, 200]);
    }

    #[test]
    fn inner_join_expands_duplicates() {
        let l = rel(vec![("lk", vec![1])]);
        let r = rel(vec![("rk", vec![1, 1, 1])]);
        let out = run(&l, &r, vec![("lk", "rk")], JoinType::Inner);
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn semi_and_anti_partition_left() {
        let l = rel(vec![("lk", vec![1, 2, 3])]);
        let r = rel(vec![("rk", vec![2, 2])]);
        let semi = run(&l, &r, vec![("lk", "rk")], JoinType::Semi);
        assert_eq!(semi.column("lk").unwrap().as_i64().unwrap(), &[2]);
        let anti = run(&l, &r, vec![("lk", "rk")], JoinType::Anti);
        assert_eq!(anti.column("lk").unwrap().as_i64().unwrap(), &[1, 3]);
        assert_eq!(semi.num_rows() + anti.num_rows(), l.num_rows());
    }

    #[test]
    fn left_outer_marks_matches() {
        let l = rel(vec![("lk", vec![1, 2])]);
        let r = rel(vec![("rk", vec![2]), ("rv", vec![99])]);
        let out = run(&l, &r, vec![("lk", "rk")], JoinType::LeftOuter);
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column(MATCHED_COL).unwrap().as_bool().unwrap(), &[false, true]);
        assert_eq!(out.column("rv").unwrap().as_i64().unwrap(), &[0, 99]);
    }

    #[test]
    fn two_key_join() {
        let l = rel(vec![("a", vec![1, 1, 2]), ("b", vec![10, 20, 10])]);
        let r = rel(vec![("c", vec![1, 2]), ("d", vec![20, 10]), ("rv", vec![7, 8])]);
        let out = run(&l, &r, vec![("a", "c"), ("b", "d")], JoinType::Inner);
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column("rv").unwrap().as_i64().unwrap(), &[7, 8]);
    }

    #[test]
    fn string_keys_rejected() {
        let l =
            Relation::new(vec![("s".into(), Arc::new(Column::Str(["a"].into_iter().collect())))])
                .unwrap();
        let r = rel(vec![("rk", vec![1])]);
        let mut p = WorkProfile::new();
        let err = exec_join(
            &l,
            &r,
            &[("s".to_string(), "rk".to_string())],
            JoinType::Inner,
            &mut p,
            &EngineConfig::serial(),
            Tracer::off(),
            &QueryContext::default(),
        );
        assert!(matches!(err, Err(EngineError::Unsupported(_))));
    }

    #[test]
    fn parallel_join_matches_serial_exactly() {
        // Duplicate keys on both sides so chain layout and duplicate
        // expansion order are exercised; tiny morsels force multi-morsel
        // probes. All join types must be bit-identical to serial.
        let n = 200i64;
        let l = rel(vec![("lk", (0..n).map(|i| i % 17).collect()), ("lv", (0..n).collect())]);
        let r = rel(vec![
            ("rk", (0..60).map(|i| i % 23).collect()),
            ("rv", (0..60).map(|i| i * 3).collect()),
        ]);
        for jt in [JoinType::Inner, JoinType::Semi, JoinType::Anti, JoinType::LeftOuter] {
            let on = [("lk".to_string(), "rk".to_string())];
            let mut sp = WorkProfile::new();
            let ctx = QueryContext::default();
            let serial =
                exec_join(&l, &r, &on, jt, &mut sp, &EngineConfig::serial(), Tracer::off(), &ctx)
                    .unwrap();
            for threads in [2, 4] {
                let cfg = EngineConfig::with_threads(threads).with_morsel_rows(13);
                let mut pp = WorkProfile::new();
                let ctx = QueryContext::default();
                let par = exec_join(&l, &r, &on, jt, &mut pp, &cfg, Tracer::off(), &ctx).unwrap();
                assert_eq!(par, serial, "{jt:?} diverged at {threads} threads");
                assert_eq!(pp, sp, "{jt:?} profile diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn grace_fallback_is_bit_exact_and_budget_bounded() {
        // Duplicate keys exercise the chain layout the determinism argument
        // leans on. 60 build rows × 16 B/key = 960 B resident build; a
        // budget well under that forces the Grace path at every thread count.
        let n = 200i64;
        let l = rel(vec![("lk", (0..n).map(|i| i % 17).collect()), ("lv", (0..n).collect())]);
        let r = rel(vec![
            ("rk", (0..60).map(|i| i % 23).collect()),
            ("rv", (0..60).map(|i| i * 3).collect()),
        ]);
        for jt in [JoinType::Inner, JoinType::Semi, JoinType::Anti, JoinType::LeftOuter] {
            let on = [("lk".to_string(), "rk".to_string())];
            let (want, _) = join(&l, &r, jt, &EngineConfig::serial(), &QueryContext::default());
            let want = want.unwrap();
            for threads in [1, 2, 4] {
                let cfg = EngineConfig::with_threads(threads).with_morsel_rows(13);
                let ctx = QueryContext::with_budget(500);
                let mut p = WorkProfile::new();
                let got = exec_join(&l, &r, &on, jt, &mut p, &cfg, Tracer::off(), &ctx).unwrap();
                assert_eq!(got, want, "{jt:?} grace diverged at {threads} threads");
                // Pinned: partition assignment decides the fan-out, and must
                // not drift silently.
                assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (1, 4), "{jt:?}");
                assert_eq!(p.spilled_bytes, 0);
                assert_eq!(ctx.mem.used(), 0, "{jt:?}: all reservations released");
            }
        }
        // A budget below one key's chain (keys repeat 3×: 48 B minimum even
        // at max fan-out) errors, typed.
        let ctx = QueryContext::with_budget(40);
        let err = join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &ctx).0.unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { ref operator, .. } if operator == "join build"),
            "got {err:?}"
        );
        assert_eq!(ctx.mem.used(), 0, "failed join released everything");
    }

    fn spill_disk(cfg: wimpi_storage::SpillConfig) -> Arc<wimpi_storage::SpillDisk> {
        Arc::new(wimpi_storage::SpillDisk::new(cfg))
    }

    /// A join whose build is too large for Grace's 1024-partition cap under
    /// the budget, but fits once the spill rung keeps doubling: 20 000
    /// distinct build keys at a budget of ~8 table rows needs several
    /// thousand partitions.
    fn spill_join_inputs() -> (Relation, Relation) {
        let l = rel(vec![("lk", (0..2_000i64).map(|i| (i * 7) % 20_000).collect())]);
        let r = rel(vec![
            ("rk", (0..20_000i64).collect()),
            ("rv", (0..20_000i64).map(|i| i * 3).collect()),
        ]);
        (l, r)
    }

    #[test]
    fn spill_rung_is_bit_exact_past_grace() {
        let (l, r) = spill_join_inputs();
        let on = [("lk".to_string(), "rk".to_string())];
        for jt in [JoinType::Inner, JoinType::Semi, JoinType::Anti, JoinType::LeftOuter] {
            let (want, _) = join(&l, &r, jt, &EngineConfig::serial(), &QueryContext::default());
            let want = want.unwrap();
            for threads in [1, 2, 4] {
                let cfg = EngineConfig::with_threads(threads).with_morsel_rows(257);
                let disk = spill_disk(wimpi_storage::SpillConfig::with_capacity(4 << 20));
                let ctx = QueryContext::with_budget(128).with_spill(Arc::clone(&disk));
                let mut p = WorkProfile::new();
                let got = exec_join(&l, &r, &on, jt, &mut p, &cfg, Tracer::off(), &ctx).unwrap();
                assert_eq!(got, want, "{jt:?} spill diverged at {threads} threads");
                // Pinned (see the Grace test): 22 000 staged 12-byte records.
                assert_eq!(p.spilled_bytes, 264_000, "{jt:?}: the spill rung must engage");
                assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (1, 16384), "{jt:?}");
                assert_eq!(disk.used(), 0, "{jt:?}: all spill chunks freed");
                assert_eq!(ctx.mem.used(), 0, "{jt:?}: all reservations released");
            }
        }
    }

    #[test]
    fn spill_rung_survives_injected_faults_bit_exactly() {
        use wimpi_storage::SpillFaults;
        let (l, r) = spill_join_inputs();
        let (want, _) =
            join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &QueryContext::default());
        let want = want.unwrap();
        // 1-in-8 per fault kind: thousands of partition chunks guarantee
        // many injected corruptions, while 16 retries make an exhausted
        // chunk (p ≈ 0.23¹⁷ per chunk) impossible in practice.
        let cfg = wimpi_storage::SpillConfig::with_capacity(4 << 20)
            .with_faults(SpillFaults::every(42, 8))
            .with_max_read_retries(16);
        let disk = spill_disk(cfg);
        let ctx = QueryContext::with_budget(128).with_spill(Arc::clone(&disk));
        let (got, p) = join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &ctx);
        let got = got.unwrap();
        assert_eq!(got, want, "faulted spill run must stay bit-exact");
        assert!(p.spill_corruptions_detected > 0, "fault injection must fire");
        assert_eq!(
            p.spill_read_retries, p.spill_corruptions_detected,
            "every detection forced one verified retry"
        );
        assert_eq!(disk.used(), 0);
    }

    #[test]
    fn spill_rung_escalates_on_disk_full_and_frees_chunks() {
        let (l, r) = spill_join_inputs();
        let disk = spill_disk(wimpi_storage::SpillConfig::with_capacity(1024));
        let ctx = QueryContext::with_budget(128).with_spill(Arc::clone(&disk));
        let (err, p) = join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &ctx);
        let err = err.unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { ref operator, .. }
                if operator.contains("spill disk full")),
            "got {err:?}"
        );
        assert!(p.spilled_bytes > 0, "partial spill traffic stays on the ledger");
        assert_eq!(disk.used(), 0, "failed spill freed its chunks");
        assert_eq!(ctx.mem.used(), 0);
    }

    #[test]
    fn spill_rung_escalates_persistent_corruption_to_integrity() {
        use wimpi_storage::SpillFaults;
        let (l, r) = spill_join_inputs();
        let cfg = wimpi_storage::SpillConfig::with_capacity(4 << 20)
            .with_faults(SpillFaults { seed: 9, torn_every: 0, corrupt_every: 1, slow_every: 0 })
            .with_max_read_retries(2);
        let disk = spill_disk(cfg);
        let ctx = QueryContext::with_budget(128).with_spill(Arc::clone(&disk));
        let err = join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &ctx).0.unwrap_err();
        assert!(
            matches!(err, EngineError::Integrity { ref table, .. } if table == "__spill"),
            "got {err:?}"
        );
        assert_eq!(disk.used(), 0, "escalation still freed the chunks");
        assert_eq!(ctx.used(), 0);
    }

    #[test]
    fn impossible_budget_still_errors_with_a_spill_disk() {
        // Keys repeat 3×, so even the deepest fan-out cannot shrink a partition
        // below one 48 B chain — the typed error must survive the disk.
        let n = 200i64;
        let l = rel(vec![("lk", (0..n).map(|i| i % 17).collect())]);
        let r = rel(vec![("rk", (0..60).map(|i| i % 23).collect())]);
        let disk = spill_disk(wimpi_storage::SpillConfig::with_capacity(4 << 20));
        let ctx = QueryContext::with_budget(40).with_spill(Arc::clone(&disk));
        let (err, p) = join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &ctx);
        let err = err.unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { ref operator, .. } if operator == "join build"),
            "got {err:?}"
        );
        // Sized from the bucket lengths: a doomed query never reaches the disk.
        assert_eq!(p.spilled_bytes, 0);
        assert_eq!(disk.sim_seconds(), 0.0);
        assert_eq!(disk.used(), 0);
        assert_eq!(ctx.used(), 0);
    }
}
