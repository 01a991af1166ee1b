//! The traced pass: sampled operations taken apart layer by layer, and
//! the per-layer metrics assembled from that, from `Answer::explain` and
//! from `tq-obs` deltas around the phases.
//!
//! Two moments matter. Between the read phase and the ingest phase the
//! read path is taken apart on the live node ([`reads`]): its state is
//! then the one every run starts from, so the counts repeat exactly.
//! After the abort, the reopened engine becomes the bench the write path
//! and recovery are taken apart on ([`writes_and_recovery`]).

use crate::layers::{self, Dataset, Memo, ReadParts, Recovered, WriteLab, BATCH_EVENTS};
use crate::openloop::Arrival;
use crate::report::RunResult;
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::workloads::{
    nanos, Mix, ReadPhase, Stage, StageTimes, Traffic, UpdateStream, K_TOP, PREFIX_ACKS, Q_COV_HIT,
    Q_TOPK_HIT, READS_TAKEN_APART, SUBSETS, TRACED_SLICE, WAL_TAIL, WRITES_TAKEN_APART,
};
use std::path::Path;
use std::time::{Duration, Instant};

fn p50(values: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<f64> = values.map(|x| x as f64).collect();
    if v.is_empty() {
        0.0
    } else {
        median(&mut v)
    }
}

/// Evenly spaced picks of at most `want` positions out of `len`.
fn spaced(len: usize, want: usize) -> impl Iterator<Item = usize> {
    let n = len.min(want);
    (0..n).map(move |i| i * len / n)
}

/// Takes the read path apart on the live node, after its read phase and
/// before its first write: every distinct query once (run times per
/// kind, evaluation counts per miss, frame sizes), the evaluation kernels
/// directly, then the traced slice's sampled operations as span trees.
/// `seconds` bounds the sampled part.
pub(crate) fn reads(
    r: &mut RunResult,
    trace: &mut Trace,
    stage: &mut Stage,
    mix: &Mix,
    traced: &ReadPhase,
    seconds: f64,
) {
    let serving = &stage.serving;
    let (nodes, depth) = serving.tree_shape();
    r.set("core.tqtree.nodes", nodes as f64);
    r.set("core.tqtree.depth", depth as f64);

    // Every distinct query, in index order.
    let parts: Vec<ReadParts> = (0..mix.distinct())
        .map(|q| layers::read_parts(serving, &mix.query(q)))
        .collect();
    let kind = |range: std::ops::Range<usize>| p50(parts[range].iter().map(|p| p.run_ns));
    // The two hit queries are single queries: repeat them for a median.
    let again = |q: usize| p50((0..32).map(|_| layers::read_parts(serving, &mix.query(q)).run_ns));
    r.set("core.engine.run_hit_ns", again(Q_TOPK_HIT));
    r.set("core.engine.run_cov_hit_us", again(Q_COV_HIT) / 1e3);
    r.set("core.engine.run_topk_miss_us", kind(2..2 + SUBSETS) / 1e3);
    r.set(
        "core.engine.run_cov_miss_us",
        kind(2 + SUBSETS..2 + 2 * SUBSETS) / 1e3,
    );
    let misses: Vec<&ReadParts> = parts.iter().filter(|p| p.facts.memo != Memo::Hit).collect();
    let per_miss = |f: fn(&ReadParts) -> u64| {
        misses.iter().map(|p| f(p)).sum::<u64>() as f64 / misses.len() as f64
    };
    let (tested, pruned) = (per_miss(|p| p.facts.tested), per_miss(|p| p.facts.pruned));
    r.set("core.eval.nodes_per_miss", per_miss(|p| p.facts.nodes));
    r.set("core.eval.tested_per_miss", tested);
    r.set("core.eval.pruned_per_miss", pruned);
    r.set(
        "core.eval.dist_checks_per_miss",
        per_miss(|p| p.facts.dist_checks),
    );
    r.set("core.eval.prune_ratio", pruned / (tested + pruned).max(1.0));
    r.set(
        "core.topk.relaxations_per_miss",
        per_miss(|p| p.facts.relaxations),
    );
    r.check(
        misses.len() == 2 * SUBSETS && parts[Q_TOPK_HIT].facts.memo == Memo::Hit,
        || {
            "the warmed node did not serve exactly the two full-candidate queries from its memo"
                .into()
        },
    );

    // The kernels, called directly.
    let kernels: Vec<_> = (0..SUBSETS)
        .map(|s| layers::eval_parts(serving, mix.subset(s), K_TOP))
        .collect();
    r.set(
        "core.topk.search_us",
        p50(kernels.iter().map(|k| k.topk_search_ns)) / 1e3,
    );
    r.set(
        "core.maxcov.table_build_us",
        p50(kernels.iter().map(|k| k.table_build_ns)) / 1e3,
    );
    r.set(
        "core.eval.masks_us_per_facility",
        p50(kernels.iter().map(|k| k.masks_ns_per_facility)) / 1e3,
    );
    r.set(
        "core.maxcov.greedy_us",
        p50((0..5).map(|_| layers::greedy_ns(serving, K_TOP))) / 1e3,
    );

    // Frame sizes, averaged over what the traced slice actually asked.
    let asked: Vec<u64> = (0..mix.distinct())
        .map(|q| traced.tallies.iter().map(|t| t.asked[q]).sum())
        .collect();
    let total: u64 = asked.iter().sum();
    let mean = |f: fn(&ReadParts) -> u64| {
        asked.iter().zip(&parts).map(|(n, p)| n * f(p)).sum::<u64>() as f64 / total as f64
    };
    r.set("net.request_bytes", mean(|p| p.request_bytes));
    r.set("net.answer_bytes", mean(|p| p.answer_bytes));
    let hits: u64 = traced.tallies.iter().map(|t| t.hits).sum();
    r.set("core.engine.memo_hit_ratio", hits as f64 / total as f64);
    // What the codec says a frame weighs is what the server counted: a
    // burst of real round trips on a quiet node, between two snapshots
    // of the registry.
    let burst = [Q_TOPK_HIT, Q_COV_HIT, 2, 2 + SUBSETS];
    let before = layers::obs();
    let mut ok = true;
    for &q in burst.iter().cycle().take(40) {
        ok &= stage.conns[0].query(mix.query(q)).is_ok();
    }
    let after = layers::obs();
    let counted = |name: &str| after.counter(name) - before.counter(name);
    let weigh = |f: fn(&ReadParts) -> u64| 10 * burst.iter().map(|&q| f(&parts[q])).sum::<u64>();
    r.check(
        ok && counted("tq_net_bytes_in_total") == weigh(|p| p.request_bytes)
            && counted("tq_net_bytes_out_total") == weigh(|p| p.answer_bytes),
        || {
            format!(
                "40 round trips: the server counted {} B in / {} B out, the codec says {} / {}",
                counted("tq_net_bytes_in_total"),
                counted("tq_net_bytes_out_total"),
                weigh(|p| p.request_bytes),
                weigh(|p| p.answer_bytes)
            )
        },
    );
    let scrapes = (0..20).map(|_| {
        let t = Instant::now();
        ok &= stage.conns[0].scrape().is_ok();
        nanos(t.elapsed())
    });
    r.set("obs.scrape_us", p50(scrapes) / 1e3);
    r.check(ok, || "a probe round trip failed".into());

    // The traced slice's operations, sampled, as span trees.
    let roots = traced.roots();
    let give_up = Instant::now() + Duration::from_secs_f64(seconds * 0.15);
    let mut taken: Vec<ReadParts> = Vec::new();
    for (op, at) in spaced(roots.len(), READS_TAKEN_APART).enumerate() {
        // Twenty at least, whatever they cost: medians need that many.
        if op >= 20 && Instant::now() >= give_up {
            break;
        }
        let root = roots[at];
        let p = layers::read_parts(serving, &mix.query(root.query));
        let span = trace.root("read", op as u32, root.due_ns, root.done_ns);
        for (name, ns) in [
            ("loadgen.queue_wait", root.sent_ns - root.due_ns),
            ("net.proto.request_encode", p.request_encode_ns),
            ("net.frame.request_decode", p.request_decode_ns),
            ("core.engine.reader_snapshot", p.snapshot_ns),
            ("core.engine.run", p.run_ns),
            ("net.proto.answer_encode", p.answer_encode_ns),
            ("net.frame.answer_decode", p.answer_decode_ns),
        ] {
            trace.child(span, name, ns);
        }
        taken.push(p);
    }
    r.set(
        "net.proto.request_encode_ns",
        p50(taken.iter().map(|p| p.request_encode_ns)),
    );
    r.set(
        "net.frame.request_decode_ns",
        p50(taken.iter().map(|p| p.request_decode_ns)),
    );
    r.set(
        "net.proto.answer_encode_ns",
        p50(taken.iter().map(|p| p.answer_encode_ns)),
    );
    r.set(
        "net.frame.answer_decode_ns",
        p50(taken.iter().map(|p| p.answer_decode_ns)),
    );
    r.set(
        "core.engine.reader_snapshot_ns",
        p50(taken.iter().map(|p| p.snapshot_ns)),
    );
    r.set("net.client.roundtrip_us", traced.roundtrip_us(0.5));

    let open = traced.arrivals.as_slice();
    r.set(
        "loadgen.queue_wait_us",
        p50(open.iter().map(Arrival::queue_wait_ns)) / 1e3,
    );
    let worst = |f: fn(&Arrival) -> u64| open.iter().map(f).max().unwrap_or(0) as f64;
    r.set(
        "loadgen.late_us_max",
        worst(Arrival::generator_late_ns) / 1e3,
    );
    r.set("loadgen.backlog_max", worst(|a| a.backlog as u64));
}

/// What is left once the node is dead.
pub(crate) struct Dead<'a> {
    /// The engine reopened from the aborted store, WAL tail replayed.
    pub engine: Recovered,
    pub ds: &'a Dataset,
    /// The update stream, where the traffic left it.
    pub stream: &'a mut UpdateStream,
    /// The aborted store's directory.
    pub dir: &'a Path,
    /// Where the scratch WAL of the append probe goes.
    pub scratch: &'a Path,
    pub times: &'a StageTimes,
    pub setup_s: f64,
    /// How long that reopen (snapshot decode + tail replay) took.
    pub reopen_with_tail_s: f64,
    /// Epochs the sink was behind when the traffic ended.
    pub feed_lag: u64,
}

/// Takes the write path apart on the reopened engine, then recovery on
/// the store it leaves, then assembles the remaining per-layer rows.
pub(crate) fn writes_and_recovery(
    r: &mut RunResult,
    trace: &mut Trace,
    dead: Dead<'_>,
    traffic: &Traffic,
    seconds: f64,
) {
    let Dead {
        engine,
        ds,
        stream,
        dir,
        scratch,
        times,
        setup_s,
        reopen_with_tail_s,
        feed_lag,
    } = dead;
    let traced = &traffic.write_slices[TRACED_SLICE];

    // -- the apply, layer by layer ---------------------------------------
    let mut lab = WriteLab::new(engine, scratch);
    let live_kusers = lab.live_users() as f64 / 1e3;
    let give_up = Instant::now() + Duration::from_secs_f64(seconds * 0.2);
    let mut taken = Vec::new();
    for (op, at) in spaced(traced.roots.len(), WRITES_TAKEN_APART).enumerate() {
        if op >= 20 && Instant::now() >= give_up {
            break;
        }
        let (batch, _) = stream.next_batch(ds);
        let p = lab.take_apart(&batch);
        let (sent_ns, acked_ns) = traced.roots[at];
        let span = trace.root("write", op as u32, sent_ns, acked_ns);
        for (name, ns) in [
            ("net.proto.apply_encode", p.apply_encode_ns),
            ("net.frame.apply_decode", p.apply_decode_ns),
            ("core.writer.hop", p.hop_ns),
            ("core.wire.batch_encode", p.batch_encode_ns),
            ("store.wal.append", p.wal_append_ns),
            ("core.engine.apply_compute", p.compute_ns),
            ("repl.hub.publish", p.publish_ns),
        ] {
            trace.child(span, name, ns);
        }
        taken.push(p);
    }
    let us = |f: fn(&layers::WriteParts) -> u64| p50(taken.iter().map(f)) / 1e3;
    let compute_us = us(|p| p.compute_ns);
    r.set("net.proto.apply_encode_us", us(|p| p.apply_encode_ns));
    r.set("net.frame.apply_decode_us", us(|p| p.apply_decode_ns));
    r.set("core.writer.hop_us", us(|p| p.hop_ns));
    r.set("core.engine.apply_compute_us", compute_us);
    r.set("core.engine.apply_us_per_kuser", compute_us / live_kusers);
    r.set("core.engine.apply_durable_us", us(|p| p.durable_ns));
    r.set("core.wire.batch_encode_us", us(|p| p.batch_encode_ns));
    r.set("store.wal.append_us", us(|p| p.wal_append_ns));
    r.set(
        "repl.hub.publish_ns",
        p50(taken.iter().map(|p| p.publish_ns)),
    );
    r.set(
        "net.client.apply_roundtrip_us",
        percentile(&traced.ack_us, 0.5),
    );
    // The first batches of the stream, whatever this run's pace was.
    let mut from_the_top = UpdateStream::new(ds.users(), stream.seed());
    let head_bytes: u64 = (0..20)
        .map(|_| layers::apply_frame_bytes(&from_the_top.next_batch(ds).0))
        .sum();
    r.set("net.apply_bytes", head_bytes as f64 / 20.0);

    // -- checkpoint and recovery -------------------------------------------
    r.set(
        "store.snapshot.checkpoint_ms",
        p50((0..3).map(|_| lab.checkpoint_ns())) / 1e6,
    );
    lab.finish();
    // The store now ends in a checkpoint: reopening it is decode alone.
    let store_open_s = layers::store_open_ns(dir) as f64 / 1e9;
    let t = Instant::now();
    drop(Recovered::open(dir).expect("the checkpointed store reopens"));
    let reopen_no_tail_s = t.elapsed().as_secs_f64();
    r.set("store.recover.open_ms", store_open_s * 1e3);
    r.set(
        "core.persist.decode_ms",
        (reopen_no_tail_s - store_open_s) * 1e3,
    );
    r.set(
        "core.persist.replay_ms",
        (reopen_with_tail_s - reopen_no_tail_s) * 1e3,
    );
    r.set("store.recover.wal_records", WAL_TAIL as f64);
    r.set("store.crc.ns_per_kib", layers::crc_ns_per_kib());

    // -- counters around the traffic -----------------------------------------
    let (before, after) = (&traffic.ingest_obs.0, &traffic.ingest_obs.1);
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let wall_s: f64 = traffic.write_slices.iter().map(|w| w.elapsed_s).sum();
    let batch_ns = |obs: &layers::Obs| obs.histogram("tq_writer_batch_ns");
    r.set(
        "core.writer.busy_frac",
        (batch_ns(after).1 - batch_ns(before).1) as f64 / 1e9 / wall_s,
    );
    r.set("core.writer.worst_batch_ms", batch_ns(after).3 as f64 / 1e6);
    r.set(
        "core.writer.queued_p99_us",
        after.histogram("tq_writer_queued_ns").2 as f64 / 1e3,
    );
    // What the engine counted is what the clients saw: the read phase's
    // answers plus the in-process reference queries, then the reads
    // beside the writer plus the two last answers (both memo hits).
    let seen = |phases: &[ReadPhase]| {
        phases
            .iter()
            .flat_map(|p| &p.tallies)
            .fold((0, 0), |(asked, hits), t| {
                (asked + t.asked.iter().sum::<u64>(), hits + t.hits)
            })
    };
    let (read_asked, read_hits) = seen(&traffic.read_slices);
    let (beside_asked, beside_hits) = seen(&traffic.beside_slices);
    for (what, obs, asked, hits) in [
        (
            "read phase",
            &traffic.read_obs,
            read_asked + traffic.reference_queries.0,
            read_hits + traffic.reference_queries.1,
        ),
        (
            "ingest phase",
            &traffic.ingest_obs,
            beside_asked + 2,
            beside_hits + 2,
        ),
    ] {
        let counted = |name: &str| obs.1.counter(name) - obs.0.counter(name);
        let (engine_asked, engine_hits) = (
            counted("tq_queries_total"),
            counted("tq_query_cache_hits_total"),
        );
        r.check(engine_asked == asked && engine_hits == hits, || {
            format!(
                "{what}: the engine counted {engine_hits} hits of {engine_asked} queries, \
                 the clients {hits} of {asked}"
            )
        });
    }
    let beside = &traffic.beside_slices[TRACED_SLICE];
    r.set("net.client.beside_write_p50_us", beside.latency_us(0.5));
    r.set("net.client.beside_write_p99_us", beside.latency_us(0.99));
    r.set("store.wal.appends", delta("tq_wal_appends_total"));
    r.set("store.snapshot.checkpoints", delta("tq_checkpoints_total"));
    r.set(
        "repl.hub.shipped_records",
        delta("tq_repl_records_shipped_total"),
    );
    r.set(
        "repl.hub.overflow_drops",
        delta("tq_repl_overflow_drops_total"),
    );
    r.set("repl.hub.lag_epochs_end", feed_lag as f64);
    let prefix = traffic.prefix();
    let wal_bytes = prefix.obs.counter("tq_wal_bytes_total") - before.counter("tq_wal_bytes_total");
    r.set(
        "store.wal.bytes_per_event",
        wal_bytes as f64 / (PREFIX_ACKS * BATCH_EVENTS as u64) as f64,
    );
    r.set(
        "store.snapshot.bytes",
        prefix.obs.gauge("tq_checkpoint_bytes") as f64,
    );

    // -- the set-up, split -------------------------------------------------------
    let build_in_memory_ns = ds.build_in_memory_ns();
    let bootstrap_ns = times.node.build_ns.saturating_sub(build_in_memory_ns);
    let span = trace.root("setup", u32::MAX, 0, (setup_s * 1e9) as u64);
    for (name, ns) in [
        ("datagen.generate", times.generate_ns),
        ("core.tqtree.build", times.node.build_ns - bootstrap_ns),
        ("store.snapshot.bootstrap", bootstrap_ns),
        ("core.engine.warm", times.node.warm_ns),
        ("store.snapshot.checkpoint", times.node.checkpoint_ns),
        ("net.server.start", times.node.start_ns),
        ("net.client.connect", times.connect_ns[0]),
        ("net.client.connect", times.connect_ns[1]),
        ("repl.feed.open", times.feed_ns),
    ] {
        trace.child(span, name, ns);
    }
    r.set("datagen.generate_ms", times.generate_ns as f64 / 1e6);
    r.set("core.tqtree.build_ms", build_in_memory_ns as f64 / 1e6);
    r.set("store.snapshot.bootstrap_ms", bootstrap_ns as f64 / 1e6);
    r.set("core.engine.warm_ms", times.node.warm_ns as f64 / 1e6);
    r.set("net.server.start_ms", times.node.start_ns as f64 / 1e6);
    r.set(
        "net.client.connect_us",
        p50(times.connect_ns.iter().copied()) / 1e3,
    );

    // -- the instruments, and the waterfalls ----------------------------------------
    let (plain, traced) = (
        traffic.read_slices[0].mean_qps(),
        traffic.read_slices[TRACED_SLICE].mean_qps(),
    );
    r.set("trace.overhead_frac", (plain - traced) / plain);
    for (root, residual) in [
        ("read", Some("net.server.residual_us")),
        ("write", Some("net.server.apply_residual_us")),
        ("setup", None),
    ] {
        let waterfall = trace
            .waterfall(root)
            .expect("every traced pass records these roots");
        if let Some(name) = residual {
            r.set(name, waterfall.residual_us);
        }
        r.notes.push(waterfall.render());
    }
}
