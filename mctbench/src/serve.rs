//! The `serve` workload: one closed-loop client session against an
//! in-process daemon (`workers: 1`) over the standard suite.

use crate::harness::Ledger;
use crate::inputs::{buffer_edit, gates_by_cone, renamed_bench};
use crate::trace::Tracer;
use crate::Layers;
use mct_core::{MctAnalyzer, MctOptions};
use mct_netlist::{circuit_digests, parse_bench, write_bench, DelayModel};
use mct_prng::SmallRng;
use mct_serve::json::Json;
use mct_serve::report::{options_overlay, report_to_json};
use mct_serve::{Client, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// The circuits whose cone entries the `eco` queries replay.
pub const ECO_CIRCUITS: [&str; 2] = ["syn-s5378x", "syn-s15850x"];

/// Every query analyzes at fixed delays (the paper's Example-2 setting):
/// through `.bench` text every suite gate gets its mapped-model delay, and
/// under the 90–100% variation a third of the suite then exceeds the σ
/// combination cap after seconds of enumeration. Fixed delays keep the
/// analysis small, so the codec, cache, store and hashing layers dominate.
const BASE_OPTIONS: &str = r#""delay_variation":null"#;

/// Option variants that miss the report cache but warm-start from the
/// reach snapshot the miss left behind.
const WARM_VARIANTS: [(&str, &str); 2] = [
    ("lp", r#""path_coupled_lp":true"#),
    ("floor32", r#""floor_divisor":32"#),
];

fn options(extra: &str) -> Json {
    let sep = if extra.is_empty() { "" } else { "," };
    Json::parse(&format!("{{{BASE_OPTIONS}{sep}{extra}}}")).expect("literal options")
}

/// One query of the script.
pub struct Query {
    pub class: &'static str,
    /// Stable across passes; seed-independent except for `eco` queries,
    /// whose id names the edited gate.
    pub id: String,
    pub name: String,
    pub text: String,
    pub options: Json,
    /// The cache labels the reply may carry.
    pub expect: &'static [&'static str],
}

/// The seeded script: the session before the restart, then the restart.
pub struct Script {
    pub session: Vec<Query>,
    pub restart: Vec<Query>,
}

pub fn script(seed: u64, short: bool) -> Script {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e55_105c_2100);
    let mut suite: Vec<(String, String)> = mct_gen::standard_suite()
        .into_iter()
        .map(|e| (e.circuit.name().to_owned(), write_bench(&e.circuit)))
        .collect();
    if short {
        suite.retain(|(n, _)| n == "s27" || n == "syn-s444" || ECO_CIRCUITS.contains(&n.as_str()));
    }
    // `.bench` text carries no delays, so some suite machines that differ
    // only in their delays become one netlist; keep the first of each.
    let mut seen = std::collections::HashSet::new();
    suite.retain(|(_, text)| {
        let circuit = parse_bench(text, &DelayModel::Mapped).expect("suite netlist parses");
        seen.insert(circuit_digests(&circuit).content)
    });
    for i in (1..suite.len()).rev() {
        suite.swap(i, rng.gen_range(0..i + 1));
    }
    let query = |class, id: String, name: &str, text: String, options, expect| Query {
        class,
        id,
        name: name.to_owned(),
        text,
        options,
        expect,
    };
    let mut session = Vec::new();
    for (name, text) in &suite {
        // The eco circuits go in decomposed from the start, so their miss
        // leaves the cone entries the edits replay.
        // The eco circuits share cones, so the second of them to arrive
        // may already replay the first one's cone entries.
        let (decompose, expect): (_, &[_]) = if ECO_CIRCUITS.contains(&name.as_str()) {
            (r#""decompose":true"#, &["miss", "warm"])
        } else {
            ("", &["miss"])
        };
        let id = format!("miss/{name}");
        session.push(query(
            "miss",
            id,
            name,
            text.clone(),
            options(decompose),
            expect,
        ));
    }
    // Every request pays two delayed-ACK stalls (about 88 ms: client and
    // server each write a line in two pieces with Nagle on), so a pass
    // holds 230 hits, not the thousand that sub-ms hits would allow.
    let hits = if short { 40 } else { 230 };
    for _ in 0..hits {
        let (name, text) = &suite[rng.gen_range(0..suite.len())];
        session.push(query(
            "hit",
            format!("hit/{name}"),
            name,
            text.clone(),
            options(""),
            &["hit"],
        ));
    }
    for (name, text) in &suite {
        let renamed = renamed_bench(text, rng.next_u64());
        let id = format!("renamed/{name}");
        session.push(query("renamed", id, name, renamed, options(""), &["hit"]));
    }
    // Decomposed runs leave cone entries, not reach snapshots, so the eco
    // circuits have nothing to warm-start from.
    for (variant, extra) in WARM_VARIANTS {
        for (name, text) in suite
            .iter()
            .filter(|(n, _)| !ECO_CIRCUITS.contains(&n.as_str()))
        {
            let id = format!("warm/{variant}/{name}");
            session.push(query(
                "warm",
                id,
                name,
                text.clone(),
                options(extra),
                &["warm"],
            ));
        }
    }
    for (name, text) in suite
        .iter()
        .filter(|(n, _)| ECO_CIRCUITS.contains(&n.as_str()))
    {
        let circuit = parse_bench(text, &DelayModel::Mapped).expect("suite netlist parses");
        // One edit per cone, at a seeded gate and pin of that cone.
        for gates in gates_by_cone(&circuit).iter().filter(|g| !g.is_empty()) {
            let gate = &gates[rng.gen_range(0..gates.len())];
            let fanin = match circuit.lookup(gate).map(|id| circuit.node(id)) {
                Some(mct_netlist::Node::Gate { inputs, .. }) => inputs.len(),
                _ => 1,
            };
            let pin = rng.gen_range(0..fanin);
            let edited = buffer_edit(text, gate, pin);
            let id = format!("eco/{name}/{gate}.{pin}");
            let decompose = options(r#""decompose":true"#);
            session.push(query("eco", id, name, edited, decompose, &["warm"]));
        }
    }
    let restart = session
        .iter()
        .filter(|q| q.class == "miss")
        .map(|q| {
            let id = q.id.replacen("miss/", "restart/", 1);
            query(
                "restart",
                id,
                &q.name,
                q.text.clone(),
                q.options.clone(),
                &["disk"],
            )
        })
        .collect();
    Script { session, restart }
}

/// A running in-process daemon.
struct Daemon {
    client: Client,
    thread: JoinHandle<std::io::Result<()>>,
}

fn start(dir: &Path) -> Result<Daemon, String> {
    let server = Server::bind(ServerConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        cache_capacity: 4096,
        cache_dir: Some(dir.to_path_buf()),
        max_queue: 4,
        idle_timeout_ms: 600_000,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok(Daemon { client, thread })
}

impl Daemon {
    fn stop(mut self) -> Result<Json, String> {
        let stats = self.client.stats().map_err(|e| format!("stats: {e}"))?;
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?
            .map_err(|e| format!("daemon: {e}"))?;
        Ok(stats)
    }
}

/// Checks a reply envelope and returns its report text.
fn reply_output(q: &Query, reply: &Json) -> Result<String, String> {
    let kind = reply.get("type").and_then(Json::as_str).unwrap_or("?");
    if kind != "report" {
        let why = reply.get("message").and_then(Json::as_str).unwrap_or("");
        return Err(format!("{}: `{kind}` reply {why}", q.id));
    }
    let label = reply.get("cache").and_then(Json::as_str).unwrap_or("?");
    if !q.expect.contains(&label) {
        return Err(format!(
            "{}: cache `{label}`, expected {:?}",
            q.id, q.expect
        ));
    }
    if q.class == "eco" {
        let total = reply.get("cones_total").and_then(Json::as_i64);
        let replayed = reply.get("cones_replayed").and_then(Json::as_i64);
        // Only the edited cone may be re-analyzed (it can replay too, when
        // an identical cone was seen before).
        if total.zip(replayed).is_none_or(|(t, r)| r + 1 < t) {
            return Err(format!(
                "{}: {replayed:?} of {total:?} cones replayed",
                q.id
            ));
        }
    }
    reply
        .get("report")
        .map(Json::to_compact)
        .ok_or_else(|| format!("{}: reply without report", q.id))
}

fn ask(
    client: &mut Client,
    tr: &mut Tracer,
    q: &Query,
    ledger: &mut Ledger,
    pass: usize,
    watch: &dyn Fn(&str, &Ledger),
) {
    watch(&q.id, ledger);
    let clock = ledger.stopwatch();
    let reply = tr.span(&format!("serve.{}", q.class), &q.id, |_| {
        client.analyze(&q.text, "bench", Some(&q.name), Some(&q.options))
    });
    let time = ledger.read(&clock);
    let result = reply
        .map_err(|e| format!("{}: transport: {e}", q.id))
        .and_then(|r| reply_output(q, &r));
    ledger.record(q.class, q.id.clone(), pass, time, result);
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// One pass: a fresh daemon on an empty cache directory runs the session,
/// then a second daemon on the same directory answers the restart queries
/// from the disk tier.
pub fn pass(
    script: &Script,
    scratch: &Path,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    pass: usize,
    layers: &mut Layers,
    watch: &dyn Fn(&str, &Ledger),
) -> Result<(), String> {
    let dir: PathBuf = scratch.join(format!("serve-pass{pass}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut daemon = start(&dir)?;
    for q in &script.session {
        ask(&mut daemon.client, tr, q, ledger, pass, watch);
    }
    let stats = daemon.stop()?;
    let mut daemon = start(&dir)?;
    for q in &script.restart {
        ask(&mut daemon.client, tr, q, ledger, pass, watch);
    }
    let restart_stats = daemon.stop()?;
    let _ = std::fs::remove_dir_all(&dir);

    let phase = |name: &str| {
        let total = stat(&stats, &["phase_latency", name, "total_us"]);
        let count = stat(&stats, &["phase_latency", name, "count"]);
        (total, count)
    };
    let (parse_us, parse_n) = phase("parse");
    let (analyze_us, analyze_n) = phase("analyze");
    let (request_us, request_n) = phase("request");
    layers.add("serve.parse_us", parse_us / parse_n.max(1.0));
    layers.add("serve.analyze_us", analyze_us / analyze_n.max(1.0));
    layers.add("serve.request_us", request_us / request_n.max(1.0));
    layers.add(
        "serve.overhead_us",
        (request_us - parse_us - analyze_us) / request_n.max(1.0),
    );
    // Time a request spends outside the daemon's request span: client
    // encode/decode and the socket round trip.
    let session: Vec<f64> = ledger
        .ops
        .iter()
        .filter(|o| o.pass == pass && o.class != "restart")
        .map(|o| o.ms * 1e3)
        .collect();
    let client_us = session.iter().sum::<f64>() / session.len().max(1) as f64;
    layers.add("serve.wire_us", client_us - request_us / request_n.max(1.0));
    let requests = stat(&stats, &["requests"]);
    layers.add(
        "serve.hit_ratio",
        stat(&stats, &["hits"]) / requests.max(1.0),
    );
    layers.add("serve.warm", stat(&stats, &["warm_starts"]));
    layers.add("serve.disk_hits", stat(&restart_stats, &["disk_hits"]));
    Ok(())
}

/// In-process reference for a query: the report the daemon must return,
/// from a cold monolithic analysis of the same netlist text.
pub fn reference(q: &Query) -> Result<String, String> {
    let mut circuit = parse_bench(&q.text, &DelayModel::Mapped).map_err(|e| e.to_string())?;
    circuit.set_name(&q.name);
    let mut opts = options_overlay(&MctOptions::paper(), &q.options)?;
    opts.decompose = false;
    let report = MctAnalyzer::new(&circuit)
        .and_then(|mut a| a.run(&opts))
        .map_err(|e| e.to_string())?;
    Ok(report_to_json(&report).to_compact())
}

/// Traced-run probes from outside the daemon: the netlist layer on every
/// served text, and the store codec on the reach and cone artifacts of
/// the served circuits.
pub fn probe(script: &Script, tr: &mut Tracer, layers: &mut Layers) {
    for q in script
        .session
        .iter()
        .filter(|q| q.class == "miss" || q.class == "renamed")
    {
        let t0 = Instant::now();
        let parsed = tr.span("netlist.parse", &q.id, |_| {
            parse_bench(&q.text, &DelayModel::Mapped)
        });
        layers.add("netlist.parse_ms", t0.elapsed().as_secs_f64() * 1e3);
        let Ok(circuit) = parsed else { continue };
        let t0 = Instant::now();
        tr.span("netlist.canon", &q.id, |_| circuit_digests(&circuit));
        layers.add("netlist.canon_ms", t0.elapsed().as_secs_f64() * 1e3);
        if q.class != "miss" {
            continue;
        }
        let Ok(mut analyzer) = MctAnalyzer::new(&circuit) else {
            continue;
        };
        let opts = options_overlay(&MctOptions::paper(), &q.options).expect("script options");
        if opts.decompose {
            // Decomposed circuits: cone artifacts.
            let t0 = Instant::now();
            let cones = tr.span("netlist.decompose", &q.id, |_| {
                mct_netlist::decompose(&circuit)
            });
            layers.add("netlist.decompose_ms", t0.elapsed().as_secs_f64() * 1e3);
            layers.add("netlist.cones", cones.len() as f64);
            let Ok((_, artifacts)) = analyzer.run_decomposed(&opts, &[]) else {
                continue;
            };
            for entry in artifacts.entries.iter().flatten() {
                let data = entry.export_data();
                let t0 = Instant::now();
                let bytes = tr.span("store.encode", &q.id, |_| mct_store::encode_cone(&data));
                layers.add("store.encode_ms", t0.elapsed().as_secs_f64() * 1e3);
                layers.add("store.artifact_bytes", bytes.len() as f64);
                let t0 = Instant::now();
                let _ = tr.span("store.decode", &q.id, |_| mct_store::decode_cone(&bytes));
                layers.add("store.decode_ms", t0.elapsed().as_secs_f64() * 1e3);
            }
        } else if let Ok((_, Some(snapshot))) = analyzer.run_warm(&opts, None) {
            let data = snapshot.export_data();
            let t0 = Instant::now();
            let bytes = tr.span("store.encode", &q.id, |_| mct_store::encode_reach(&data));
            layers.add("store.encode_ms", t0.elapsed().as_secs_f64() * 1e3);
            layers.add("store.artifact_bytes", bytes.len() as f64);
            let t0 = Instant::now();
            let _ = tr.span("store.decode", &q.id, |_| mct_store::decode_reach(&bytes));
            layers.add("store.decode_ms", t0.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Set-up warm-up: one daemon start, a ping and a tiny analysis, so the
/// first timed pass does not pay for first-touch costs.
pub fn warm_up(scratch: &Path) -> Result<(), String> {
    let dir = scratch.join("warm-up");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut daemon = start(&dir)?;
    let s27 = write_bench(&mct_gen::s27(&DelayModel::Mapped));
    let reply = daemon
        .client
        .analyze(&s27, "bench", Some("s27"), Some(&options("")))
        .map_err(|e| format!("warm-up: {e}"))?;
    if reply.get("type").and_then(Json::as_str) != Some("report") {
        return Err(format!("warm-up: {}", reply.to_compact()));
    }
    daemon.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
