//! Interactive SQL shell over a generated TPC-H catalog.
//!
//! ```text
//! cargo run --release --example sql_shell [sf]
//! ```
//!
//! Type SQL (single line, `;` optional). Prefix a statement with
//! `EXPLAIN ANALYZE` to get the operator-level trace tree (rows, wall time,
//! and work-profile bytes per operator, including the measured reservation
//! peak). Meta-commands: `\tables`, `\schema <table>`, `\hw` (toggle
//! per-machine predictions), `\metrics` (service counters), `\q`.
//!
//! Resource governance: `SET memory_budget = 64M` caps each query's operator
//! scratch (`0` or `unlimited` lifts the cap; the `WIMPI_MEM_BUDGET`
//! environment variable seeds the initial value; fractional units like
//! `1.5GiB` or `0.5MB` work), and `SET timeout_ms = 500` gives every query a
//! cooperative deadline (`0` disables it).
//!
//! Concurrency: `SET concurrency = N` routes statements through an
//! `engine::service::Service` with `N` workers whose node-wide budget is the
//! session's memory budget — admission control, grant arbitration, and the
//! one full-budget retry all engage, and `\metrics` shows the counters.
//! `SET concurrency = 0` (the default) returns to direct in-process
//! execution.
//!
//! Integrity: `SET verify_checksums = on` seals an integrity manifest over
//! every table (first time only) and verifies each scan against it — a
//! corrupt chunk fails the query with a typed violation instead of silently
//! skewing the answer. `\metrics` includes `integrity_checks_total` and
//! `integrity_failures_total` in both direct and service mode. Neither mode
//! repairs or retries a violation: repair is the cluster's (DESIGN.md §12).
//!
//! Pricing: `SET executor = fused | materialize` switches the price list the
//! work is charged in — MonetDB's column-at-a-time materialization (the
//! paper's, the default) or a fused morsel-at-a-time pipeline's (DESIGN.md
//! §13). Only the work profile and the `\hw` predictions change: the answer
//! and the `EXPLAIN ANALYZE` tree are the same under both, and the tree's
//! footer names the active list.
//!
//! Out-of-core: `SET spill = on` attaches a simulated bounded microSD
//! spill disk (DESIGN.md §16) to every direct statement's governor context:
//! joins, aggregates, and sorts that cannot fit the memory budget even
//! after Grace partitioning stage partitions on the disk instead of
//! failing, bit-exactly. `\metrics` surfaces the session's cumulative
//! `spill_*` ledger. Spill applies to direct execution (`concurrency = 0`).
//!
//! Pruning: `SET prune_scans = on` seals zone maps over every table (first
//! time only, mirroring `verify_checksums`) and lets selective scans skip
//! morsels the summaries prove irrelevant — answers stay bit-identical,
//! only bytes and time change (DESIGN.md §14).
//!
//! Caching: direct (serviceless) statements go through the coordinator's
//! governor-reserved [`ResultCache`] (DESIGN.md §15); repeated statements
//! answer from cache — reported as such, with no work and so no `\hw`
//! predictions — `SET` knobs that reseal the catalog invalidate it, and
//! `\metrics` shows the `coord_result_cache_*` counters.

use std::io::{BufRead, Write};
use std::sync::Arc;

use wimpi::cluster::coordinator::ResultCache;
use wimpi::engine::governor::UNLIMITED;
use wimpi::engine::{
    governor, EngineConfig, Executor, QueryContext, QuerySpec, Service, ServiceConfig, Tracer,
};
use wimpi::hwsim::{all_profiles, predict_all_cores};
use wimpi::sql::{execute_sql_with, strip_explain_analyze};
use wimpi::storage::spill::{SpillConfig, SpillDisk};
use wimpi::storage::Catalog;
use wimpi::tpch::Generator;

/// Parses `SET <knob> = <value>` (case-insensitive `SET`, optional `;`).
fn parse_set(line: &str) -> Option<(String, String)> {
    let trimmed = line.trim().trim_end_matches(';').trim_end();
    let (head, rest) = trimmed.split_once(char::is_whitespace)?;
    if !head.eq_ignore_ascii_case("set") {
        return None;
    }
    let (knob, value) = rest.split_once('=')?;
    Some((knob.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// Builds the per-query governor context from the session knobs (direct
/// execution path — with a service, the service builds the context).
fn make_ctx(
    mem_budget: Option<u64>,
    timeout_ms: Option<u64>,
    spill: Option<&Arc<SpillDisk>>,
) -> QueryContext {
    let mut ctx = match mem_budget {
        Some(b) => QueryContext::with_budget(b),
        None => QueryContext::new(),
    };
    if let Some(ms) = timeout_ms {
        ctx = ctx.with_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(disk) = spill {
        ctx = ctx.with_spill(Arc::clone(disk));
    }
    ctx
}

/// A fresh service sized to the session knobs (`None` when concurrency is
/// off). Rebuilt whenever `concurrency` or `memory_budget` changes.
fn make_service(concurrency: usize, mem_budget: Option<u64>) -> Option<Service> {
    (concurrency > 0)
        .then(|| Service::new(ServiceConfig::new(mem_budget.unwrap_or(UNLIMITED), concurrency)))
}

/// The spec for one shell statement submitted to the service.
fn make_spec(sql: &str, timeout_ms: Option<u64>) -> QuerySpec {
    let mut spec = QuerySpec::new(sql);
    if let Some(ms) = timeout_ms {
        spec = spec.with_timeout(std::time::Duration::from_millis(ms));
    }
    spec
}

fn main() {
    let sf: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.01);
    eprintln!("generating TPC-H SF {sf} …");
    let mut catalog: Arc<Catalog> =
        Arc::new(Generator::new(sf).generate_catalog().expect("generation succeeds"));
    eprintln!("ready. \\tables lists tables, \\q quits.\n");
    let stdin = std::io::stdin();
    let mut show_hw = false;
    let mut mem_budget: Option<u64> = governor::budget_from_env();
    let mut timeout_ms: Option<u64> = None;
    let mut concurrency: usize = 0;
    let mut service: Option<Service> = None;
    let mut verify = false;
    let mut prune = false;
    let mut spill: Option<Arc<SpillDisk>> = None;
    let mut executor = Executor::default();
    // Integrity + cache counters for direct (serviceless) execution; with a
    // service, its own registry carries the service-side counters.
    let shell_metrics = wimpi::obs::Registry::new();
    // Governor-reserved result cache for direct statements, keyed by the
    // statement text. Knobs never change answers (executor and pruning are
    // bit-exact by contract), but resealing the catalog swaps table handles
    // — those knobs invalidate below.
    let result_cache = ResultCache::new(16 << 20);
    let all_tables =
        |catalog: &Catalog| -> Vec<String> { catalog.names().map(String::from).collect() };
    print!("wimpi> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let line = line.trim();
        match line {
            "" => {}
            "\\q" | "exit" | "quit" => break,
            "\\hw" => {
                show_hw = !show_hw;
                println!("hardware predictions {}", if show_hw { "on" } else { "off" });
            }
            "\\metrics" => {
                if let Some(svc) = &service {
                    print!("{}", svc.metrics().render());
                }
                let rendered = shell_metrics.render();
                if rendered.is_empty() && service.is_none() {
                    println!(
                        "no counters yet (SET concurrency = N starts a service; \
                         SET verify_checksums = on counts integrity checks; \
                         SET spill = on fills the spill_* ledger; \
                         repeated statements fill the coord_result_cache_* counters)"
                    );
                } else {
                    print!("{rendered}");
                }
            }
            "\\tables" => {
                for name in catalog.names() {
                    let t = catalog.table(name).expect("registered");
                    println!("{name:10} {:>9} rows", t.num_rows());
                }
            }
            cmd if cmd.starts_with("\\schema") => {
                let table = cmd.trim_start_matches("\\schema").trim();
                match catalog.table(table) {
                    Ok(t) => println!("{}", t.schema()),
                    Err(e) => println!("error: {e}"),
                }
            }
            cmd if parse_set(cmd).is_some() => {
                let (knob, value) = parse_set(cmd).expect("guard matched");
                match knob.as_str() {
                    "memory_budget" => {
                        if value == "0" || value.eq_ignore_ascii_case("unlimited") {
                            mem_budget = None;
                            println!("memory budget unlimited");
                        } else {
                            match governor::parse_budget(&value) {
                                Ok(b) => {
                                    mem_budget = Some(b);
                                    println!("memory budget {b} bytes");
                                }
                                Err(e) => println!("error: {e}"),
                            }
                        }
                        if service.is_some() {
                            service = make_service(concurrency, mem_budget);
                            println!("(service restarted with the new node budget)");
                        }
                    }
                    "timeout_ms" => match value.parse::<u64>() {
                        Ok(0) => {
                            timeout_ms = None;
                            println!("timeout disabled");
                        }
                        Ok(ms) => {
                            timeout_ms = Some(ms);
                            println!("timeout {ms} ms");
                        }
                        Err(_) => println!("error: timeout_ms wants an integer, got {value:?}"),
                    },
                    "concurrency" => match value.parse::<usize>() {
                        Ok(0) => {
                            concurrency = 0;
                            service = None;
                            println!("concurrency off (direct execution)");
                        }
                        Ok(n) => {
                            concurrency = n;
                            service = make_service(n, mem_budget);
                            println!(
                                "service: {n} worker(s), node budget {}",
                                match mem_budget {
                                    Some(b) => format!("{b} bytes"),
                                    None => "unlimited".to_string(),
                                }
                            );
                        }
                        Err(_) => println!("error: concurrency wants an integer, got {value:?}"),
                    },
                    "executor" => match value.to_ascii_lowercase().as_str() {
                        "fused" => {
                            executor = Executor::Fused;
                            println!("executor fused (work priced as a morsel-at-a-time pipeline)");
                        }
                        "materialize" | "materializing" => {
                            executor = Executor::Materialize;
                            println!(
                                "executor materialize (work priced as column-at-a-time \
                                 materialization)"
                            );
                        }
                        _ => println!("error: executor wants fused|materialize, got {value:?}"),
                    },
                    "verify_checksums" => match value.to_ascii_lowercase().as_str() {
                        "on" | "true" | "1" => {
                            // Seal manifests lazily on first use; sealing is
                            // idempotent, so re-enabling is free. Sealing
                            // swaps table handles, so cached results built
                            // on the old handles are invalidated.
                            Arc::make_mut(&mut catalog).seal_integrity();
                            result_cache.invalidate_tables(&all_tables(&catalog), &shell_metrics);
                            verify = true;
                            println!("scan-time checksum verification on");
                        }
                        "off" | "false" | "0" => {
                            verify = false;
                            println!("scan-time checksum verification off");
                        }
                        _ => println!("error: verify_checksums wants on|off, got {value:?}"),
                    },
                    "prune_scans" => match value.to_ascii_lowercase().as_str() {
                        "on" | "true" | "1" => {
                            // Mirror verify_checksums: seal zone maps lazily
                            // on first use (idempotent — tables that already
                            // carry zones keep them), invalidate cached
                            // results built on the pre-seal handles.
                            Arc::make_mut(&mut catalog).seal_zone_maps();
                            result_cache.invalidate_tables(&all_tables(&catalog), &shell_metrics);
                            prune = true;
                            println!("zone-map scan pruning on");
                        }
                        "off" | "false" | "0" => {
                            prune = false;
                            println!("zone-map scan pruning off");
                        }
                        _ => println!("error: prune_scans wants on|off, got {value:?}"),
                    },
                    "spill" => match value.to_ascii_lowercase().as_str() {
                        "on" | "true" | "1" => {
                            // One disk per session: its counters accumulate
                            // across statements, which is what \metrics
                            // reports. Capacity mirrors a 256 MiB card slice.
                            spill = Some(Arc::new(SpillDisk::new(SpillConfig::with_capacity(
                                256 << 20,
                            ))));
                            if service.is_some() {
                                println!(
                                    "note: spill applies to direct execution; \
                                     SET concurrency = 0 to engage it"
                                );
                            }
                            println!("out-of-core spill on (256 MiB simulated spill disk)");
                        }
                        "off" | "false" | "0" => {
                            spill = None;
                            println!("out-of-core spill off");
                        }
                        _ => println!("error: spill wants on|off, got {value:?}"),
                    },
                    other => {
                        println!(
                            "error: unknown knob {other:?} \
                             (memory_budget, timeout_ms, concurrency, verify_checksums, \
                             executor, prune_scans, spill)"
                        )
                    }
                }
            }
            sql if strip_explain_analyze(sql).is_some() => {
                let inner = strip_explain_analyze(sql).expect("guard matched");
                let inner = inner.trim_end_matches(';').trim_end();
                let ctx = make_ctx(mem_budget, timeout_ms, spill.as_ref());
                let cfg = EngineConfig::serial()
                    .with_verify_checksums(verify)
                    .with_executor(executor)
                    .with_prune_scans(prune);
                let tracer = Tracer::enabled();
                match execute_sql_with(inner, &catalog, &cfg, &ctx, &tracer) {
                    Ok((rel, work)) => {
                        let span = tracer.take_root().expect("an enabled tracer yields a root");
                        print!("{}", span.render());
                        println!(
                            "(executor: {}; {} rows; {:.1} MB streamed, {} ops, peak {} B)",
                            executor.label(),
                            rel.num_rows(),
                            work.seq_bytes() as f64 / 1e6,
                            work.cpu_ops,
                            work.peak_bytes
                        );
                        if ctx.fallbacks() > 0 {
                            println!(
                                "(degraded: {} operator(s) fell back to Grace partitioning, \
                                 up to {} partitions)",
                                ctx.fallbacks(),
                                ctx.max_fallback_parts()
                            );
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            sql => {
                let started = std::time::Instant::now();
                let outcome = match &service {
                    // Through the service: admission, grant arbitration, and
                    // the one full-budget retry all apply. The closure reads
                    // fallback telemetry before the context is torn down.
                    Some(svc) => {
                        let owned = sql.to_string();
                        let cat = Arc::clone(&catalog);
                        let cfg = EngineConfig::serial()
                            .with_verify_checksums(verify)
                            .with_executor(executor)
                            .with_prune_scans(prune);
                        svc.run_blocking(make_spec(sql, timeout_ms), move |ctx| {
                            execute_sql_with(&owned, &cat, &cfg, ctx, Tracer::off())
                                .map(|(rel, work)| (rel, Some(work), ctx.fallbacks()))
                                .map_err(|e| e.into_engine())
                        })
                        .map_err(|e| e.to_string())
                    }
                    None => {
                        let key = sql.trim_end_matches(';').trim_end().to_string();
                        match result_cache.get(&key, &shell_metrics) {
                            // No work was done, so there is nothing to price.
                            Some(rel) => Ok((rel, None, 0)),
                            None => {
                                let ctx = make_ctx(mem_budget, timeout_ms, spill.as_ref());
                                let cfg = EngineConfig::serial()
                                    .with_verify_checksums(verify)
                                    .with_executor(executor)
                                    .with_prune_scans(prune);
                                let out =
                                    execute_sql_with(sql, &catalog, &cfg, &ctx, Tracer::off())
                                        .map(|(rel, work)| (rel, Some(work), ctx.fallbacks()))
                                        .map_err(|e| e.to_string());
                                let checks = ctx.integrity_checks();
                                if checks > 0 {
                                    shell_metrics.inc("integrity_checks_total", checks);
                                }
                                if matches!(&out, Err(e) if e.contains("integrity violation")) {
                                    shell_metrics.inc("integrity_failures_total", 1);
                                }
                                if let Ok((rel, _, _)) = &out {
                                    result_cache.insert(
                                        &key,
                                        rel,
                                        &all_tables(&catalog),
                                        &shell_metrics,
                                    );
                                }
                                out
                            }
                        }
                    }
                };
                match outcome {
                    Ok((rel, None, _)) => {
                        println!("{}", rel.to_text(20));
                        println!(
                            "({} rows from the result cache in {:.3}s host; no work done)",
                            rel.num_rows(),
                            started.elapsed().as_secs_f64()
                        );
                    }
                    Ok((rel, Some(work), fallbacks)) => {
                        println!("{}", rel.to_text(20));
                        println!(
                            "({} rows in {:.3}s host; {:.1} MB streamed, peak {} B)",
                            rel.num_rows(),
                            started.elapsed().as_secs_f64(),
                            work.seq_bytes() as f64 / 1e6,
                            work.peak_bytes
                        );
                        if fallbacks > 0 {
                            println!(
                                "(degraded: {fallbacks} operator(s) fell back to \
                                 Grace partitioning)"
                            );
                        }
                        if work.spilled_bytes > 0 {
                            shell_metrics.inc("spill_spilled_bytes_total", work.spilled_bytes);
                            shell_metrics.inc("spill_read_retries_total", work.spill_read_retries);
                            shell_metrics.inc(
                                "spill_corruptions_detected_total",
                                work.spill_corruptions_detected,
                            );
                            println!(
                                "(spilled {:.1} MB to the spill disk; {} read retries, \
                                 {} corruptions detected)",
                                work.spilled_bytes as f64 / 1e6,
                                work.spill_read_retries,
                                work.spill_corruptions_detected
                            );
                        }
                        if show_hw {
                            for hw in all_profiles() {
                                let p = predict_all_cores(&hw, &work);
                                println!("  {:12} {:>9.4}s", hw.name, p.total_s());
                            }
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
        }
        print!("wimpi> ");
        std::io::stdout().flush().ok();
    }
    println!();
}
