//! End-to-end tests of the analysis service over real TCP sockets:
//! serve → query → query with a cache hit and a byte-identical report,
//! canonical-hash sharing across renamed netlists, warm starts, disk
//! persistence, backpressure shedding, and error handling.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use mct_serve::client::Client;
use mct_serve::json::Json;
use mct_serve::server::{Server, ServerConfig};

/// The paper's Figure-2 circuit in `.bench` form.
const FIG2: &str = "\
OUTPUT(f)
f = DFF(g)
c = BUFF(f)
d = NOT(f)
e = BUFF(f)
a = AND(c, d, e)
b = NOT(f)
g = OR(a, b)
";

/// Figure 2 with every wire renamed and the gate lines shuffled — the
/// same circuit up to the canonical hash.
const FIG2_RENAMED: &str = "\
n_g = OR(n_a, n_b)
n_c = BUFF(q)
n_b = NOT(q)
n_a = AND(n_c, n_d, n_e)
n_d = NOT(q)
n_e = BUFF(q)
q = DFF(n_g)
OUTPUT(q)
";

/// Two asymmetric registers. `TWO_REG_SWAPPED` is the same machine with
/// the DFF lines declared in the opposite order: the canonical *content*
/// hash is identical, but the register state-bit positions are permuted.
const TWO_REG: &str = "\
OUTPUT(p)
p = DFF(gp)
q = DFF(gq)
gp = NOT(q)
gq = AND(p, q)
";
const TWO_REG_SWAPPED: &str = "\
OUTPUT(p)
q = DFF(gq)
p = DFF(gp)
gp = NOT(q)
gq = AND(p, q)
";

/// Three independent cones of influence: a one-register toggler, a
/// two-register machine, and a stateless input cone. `TRI_CONE_EDITED`
/// changes one gate (`y = AND` → `y = OR`) inside the stateless cone
/// only, leaving the other two cones' digests untouched.
const TRI_CONE: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(p)
OUTPUT(q)
OUTPUT(y)
p = DFF(gp)
gp = NOT(p)
q = DFF(gq)
r = DFF(gr)
gq = AND(q, r)
gr = NOT(q)
y = AND(a, b)
";
const TRI_CONE_EDITED: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(p)
OUTPUT(q)
OUTPUT(y)
p = DFF(gp)
gp = NOT(p)
q = DFF(gq)
r = DFF(gr)
gq = AND(q, r)
gr = NOT(q)
y = OR(a, b)
";

fn start(
    cfg: ServerConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(cfg).expect("bind server");
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    (addr, thread)
}

fn report_text(response: &Json) -> String {
    assert_eq!(
        response.get("type").and_then(Json::as_str),
        Some("report"),
        "expected a report, got: {}",
        response.to_compact()
    );
    response.get("report").expect("report field").to_compact()
}

fn cache_label(response: &Json) -> &str {
    response
        .get("cache")
        .and_then(Json::as_str)
        .expect("cache field")
}

#[test]
fn second_identical_request_is_a_bit_identical_cache_hit() {
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    let cold = client.analyze(FIG2, "bench", Some("fig2"), None).unwrap();
    assert_eq!(cache_label(&cold), "miss");
    let warm = client.analyze(FIG2, "bench", Some("fig2"), None).unwrap();
    assert_eq!(cache_label(&warm), "hit");
    assert_eq!(
        report_text(&cold),
        report_text(&warm),
        "cache hit must replay the cold report byte for byte"
    );
    assert_eq!(cold.get("key"), warm.get("key"));

    // The report carries real analysis content.
    let report = cold.get("report").unwrap();
    assert!(
        report
            .get("mct_upper_bound")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    assert_eq!(report.get("circuit").and_then(Json::as_str), Some("fig2"));

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("type").and_then(Json::as_str), Some("stats"));
    assert_eq!(stats.get("hits").and_then(Json::as_i64), Some(1));
    assert_eq!(stats.get("misses").and_then(Json::as_i64), Some(1));
    assert!(stats.get("requests").and_then(Json::as_i64).unwrap() >= 3);
    assert!(stats.get("queue_depth").and_then(Json::as_i64).is_some());
    let analyze_phase = stats.get("phase_latency").unwrap().get("analyze").unwrap();
    assert_eq!(analyze_phase.get("count").and_then(Json::as_i64), Some(1));

    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
}

#[test]
fn renamed_and_reordered_netlist_hits_the_same_cache_entry() {
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    let first = client.analyze(FIG2, "bench", Some("m"), None).unwrap();
    assert_eq!(cache_label(&first), "miss");
    let second = client
        .analyze(FIG2_RENAMED, "bench", Some("m"), None)
        .unwrap();
    assert_eq!(
        cache_label(&second),
        "hit",
        "canonical hashing must see through renaming and reordering"
    );
    assert_eq!(first.get("key"), second.get("key"));
    assert_eq!(report_text(&first), report_text(&second));

    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
}

#[test]
fn ordering_option_does_not_split_the_cache() {
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    // Variable ordering only changes node counts and wall time, never the
    // report, so every policy must share one cache entry.
    let alloc = Json::parse(r#"{"ordering":"alloc"}"#).unwrap();
    let fixed = Json::parse(r#"{"ordering":"static"}"#).unwrap();
    let first = client
        .analyze(FIG2, "bench", Some("fig2"), Some(&alloc))
        .unwrap();
    assert_eq!(cache_label(&first), "miss");
    let second = client
        .analyze(FIG2, "bench", Some("fig2"), Some(&fixed))
        .unwrap();
    assert_eq!(
        cache_label(&second),
        "hit",
        "a different ordering must replay the cached report"
    );
    assert_eq!(first.get("key"), second.get("key"));
    assert_eq!(report_text(&first), report_text(&second));

    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
}

#[test]
fn sigma_strategies_share_one_cache_entry_and_counters_surface_in_stats() {
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    // The pruned Φ walk visits exactly the feasible subsequence the flat
    // odometer examines, so the strategy is a performance lever, never a
    // semantic one: both requests must share one cache entry and replay
    // byte for byte.
    let pruned = Json::parse(r#"{"sigma":"pruned","exhaustive_floor":1.0}"#).unwrap();
    let flat = Json::parse(r#"{"sigma":"flat","exhaustive_floor":1.0}"#).unwrap();
    let first = client
        .analyze(FIG2, "bench", Some("fig2"), Some(&pruned))
        .unwrap();
    assert_eq!(cache_label(&first), "miss");
    let second = client
        .analyze(FIG2, "bench", Some("fig2"), Some(&flat))
        .unwrap();
    assert_eq!(
        cache_label(&second),
        "hit",
        "a different sigma strategy must replay the cached report"
    );
    assert_eq!(first.get("key"), second.get("key"));
    assert_eq!(report_text(&first), report_text(&second));

    // The scheduling-dependent counters stay out of the serialized
    // report (they would break bit-identical replay across strategies
    // and thread counts)...
    let report = first.get("report").unwrap();
    assert!(report.get("sigma_pruned").is_none());
    assert!(report.get("sigma_pruned_subtrees").is_none());
    assert!(report.get("sigma_reused").is_none());

    // ...and surface in the aggregated kernel stats instead.
    let stats = client.stats().unwrap();
    let kernel = stats.get("kernel").expect("kernel stats");
    assert!(kernel.get("sigma_pruned").and_then(Json::as_i64).is_some());
    assert!(kernel
        .get("sigma_pruned_subtrees")
        .and_then(Json::as_i64)
        .is_some());
    let reused = kernel.get("sigma_reused").and_then(Json::as_i64).unwrap();
    assert!(
        reused > 0,
        "the exhaustive fig2 sweep reuses composed decision cones"
    );

    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
}

#[test]
fn different_options_warm_start_matches_a_cold_run() {
    let fixed = Json::parse(r#"{"delay_variation":null}"#).unwrap();

    // Server 1: default-options run populates the reach snapshot, then a
    // fixed-delay run warm-starts from it.
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let paper = client.analyze(FIG2, "bench", Some("fig2"), None).unwrap();
    assert_eq!(cache_label(&paper), "miss");
    let warm = client
        .analyze(FIG2, "bench", Some("fig2"), Some(&fixed))
        .unwrap();
    assert_eq!(
        cache_label(&warm),
        "warm",
        "same circuit, new options must reuse the reachable-state set"
    );
    assert_ne!(paper.get("key"), warm.get("key"));
    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();

    // Server 2: the same fixed-delay run cold. Reports must agree bit
    // for bit — warm starting must not change any answer.
    let (addr2, thread2) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client2 = Client::connect(addr2).unwrap();
    let cold = client2
        .analyze(FIG2, "bench", Some("fig2"), Some(&fixed))
        .unwrap();
    assert_eq!(cache_label(&cold), "miss");
    assert_eq!(report_text(&warm), report_text(&cold));
    client2.shutdown().unwrap();
    thread2.join().unwrap().unwrap();
}

#[test]
fn reordered_registers_never_import_a_foreign_reach_snapshot() {
    let fixed = Json::parse(r#"{"delay_variation":null}"#).unwrap();
    let lp = Json::parse(r#"{"path_coupled_lp":true}"#).unwrap();

    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let first = client.analyze(TWO_REG, "bench", Some("m"), None).unwrap();
    assert_eq!(cache_label(&first), "miss");
    // Positive control: same declaration order, different options — the
    // reachable-state snapshot is reusable.
    let control = client
        .analyze(TWO_REG, "bench", Some("m"), Some(&lp))
        .unwrap();
    assert_eq!(cache_label(&control), "warm");
    // Same canonical circuit, different options again (so the report
    // cache misses) but *permuted register declaration*: the snapshot's
    // state bits would land on the wrong registers, so the server must
    // run the fixpoint cold rather than warm-start.
    let swapped = client
        .analyze(TWO_REG_SWAPPED, "bench", Some("m"), Some(&fixed))
        .unwrap();
    assert_eq!(
        cache_label(&swapped),
        "miss",
        "a reach snapshot must never cross register declaration orders"
    );
    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();

    // A fresh server's cold run of the swapped netlist agrees bit for bit.
    let (addr2, thread2) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client2 = Client::connect(addr2).unwrap();
    let cold = client2
        .analyze(TWO_REG_SWAPPED, "bench", Some("m"), Some(&fixed))
        .unwrap();
    assert_eq!(cache_label(&cold), "miss");
    assert_eq!(report_text(&swapped), report_text(&cold));
    client2.shutdown().unwrap();
    thread2.join().unwrap().unwrap();
}

#[test]
fn register_reordered_hit_is_flagged_with_canonical_indices() {
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    let first = client.analyze(TWO_REG, "bench", Some("m"), None).unwrap();
    assert_eq!(cache_label(&first), "miss");
    assert!(first.get("canonical_indices").is_none());

    // Same content hash, permuted registers: still a hit, but the reply
    // must warn that index-valued diagnostics use the original
    // declaration order.
    let swapped = client
        .analyze(TWO_REG_SWAPPED, "bench", Some("m"), None)
        .unwrap();
    assert_eq!(cache_label(&swapped), "hit");
    assert_eq!(
        swapped.get("canonical_indices").and_then(Json::as_bool),
        Some(true)
    );

    // The original declaration order replays unflagged.
    let again = client.analyze(TWO_REG, "bench", Some("m"), None).unwrap();
    assert_eq!(cache_label(&again), "hit");
    assert!(again.get("canonical_indices").is_none());

    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
}

#[test]
fn one_gate_edit_replays_every_untouched_cone() {
    let decompose = Json::parse(r#"{"decompose":true}"#).unwrap();
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    // Cold decomposed run: three cones, none replayable yet.
    let cold = client
        .analyze(TRI_CONE, "bench", Some("tri"), Some(&decompose))
        .unwrap();
    assert_eq!(cache_label(&cold), "miss");
    assert_eq!(cold.get("cones_total").and_then(Json::as_i64), Some(3));
    assert_eq!(cold.get("cones_replayed").and_then(Json::as_i64), Some(0));

    // The ECO: one gate flipped inside the stateless cone. The whole-report
    // cache misses (new content hash), but the two state-holding cones'
    // digests are unchanged, so exactly cones_total − 1 replay.
    let eco = client
        .analyze(TRI_CONE_EDITED, "bench", Some("tri"), Some(&decompose))
        .unwrap();
    assert_eq!(
        cache_label(&eco),
        "warm",
        "a one-cone edit must replay the untouched cones"
    );
    assert_eq!(eco.get("cones_total").and_then(Json::as_i64), Some(3));
    assert_eq!(
        eco.get("cones_replayed").and_then(Json::as_i64),
        Some(2),
        "cones_replayed must equal cones_total - 1 after a one-cone edit"
    );

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("cones_total").and_then(Json::as_i64), Some(6));
    assert_eq!(stats.get("cones_replayed").and_then(Json::as_i64), Some(2));
    // Two shared cones + the pre-edit and post-edit variants of the third.
    assert_eq!(stats.get("cone_entries").and_then(Json::as_i64), Some(4));

    // `decompose` is excluded from the options fingerprint: a monolithic
    // request for the edited circuit is answered from the report cache,
    // byte-identical — the decomposed report IS the monolithic report.
    let mono = client
        .analyze(TRI_CONE_EDITED, "bench", Some("tri"), None)
        .unwrap();
    assert_eq!(cache_label(&mono), "hit");
    assert_eq!(report_text(&eco), report_text(&mono));
    assert!(mono.get("cones_total").is_none());

    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();

    // Cross-check against a fresh server's cold monolithic run: the
    // incrementally recombined report must match bit for bit.
    let (addr2, thread2) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client2 = Client::connect(addr2).unwrap();
    let cold_mono = client2
        .analyze(TRI_CONE_EDITED, "bench", Some("tri"), None)
        .unwrap();
    assert_eq!(cache_label(&cold_mono), "miss");
    assert_eq!(report_text(&eco), report_text(&cold_mono));
    client2.shutdown().unwrap();
    thread2.join().unwrap().unwrap();
}

#[test]
fn disk_cache_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("mct-serve-disk-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let first = client.analyze(FIG2, "bench", Some("fig2"), None).unwrap();
    assert_eq!(cache_label(&first), "miss");
    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();

    let (addr2, thread2) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client2 = Client::connect(addr2).unwrap();
    let revived = client2.analyze(FIG2, "bench", Some("fig2"), None).unwrap();
    assert_eq!(
        cache_label(&revived),
        "disk",
        "a fresh server must find the persisted entry"
    );
    assert_eq!(report_text(&first), report_text(&revived));
    // Promoted to memory: a third request is a plain hit.
    let again = client2.analyze(FIG2, "bench", Some("fig2"), None).unwrap();
    assert_eq!(cache_label(&again), "hit");
    client2.shutdown().unwrap();
    thread2.join().unwrap().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_is_shed_with_a_busy_response() {
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        max_queue: 1,
        idle_timeout_ms: 60_000,
        ..ServerConfig::default()
    });

    // Occupy the only worker with a connection that never sends a line.
    let _occupant = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    // This one fills the single queue slot…
    let _queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    // …so the third connection must be shed immediately.
    let shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut line = String::new();
    BufReader::new(shed).read_line(&mut line).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("type").and_then(Json::as_str), Some("busy"));

    // Free the worker and the queue slot, then shut down normally.
    drop(_occupant);
    drop(_queued);
    std::thread::sleep(Duration::from_millis(300));
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
}

#[test]
fn malformed_requests_are_answered_with_errors() {
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| {
        writeln!(stream, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        Json::parse(response.trim()).unwrap()
    };

    let garbage = ask("this is not json");
    assert_eq!(garbage.get("type").and_then(Json::as_str), Some("error"));

    let unknown = ask(r#"{"type":"frobnicate"}"#);
    assert_eq!(unknown.get("type").and_then(Json::as_str), Some("error"));
    assert!(unknown
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("frobnicate"));

    let bad_netlist = ask(r#"{"type":"analyze","netlist":"x = FROB(y)"}"#);
    assert_eq!(
        bad_netlist.get("type").and_then(Json::as_str),
        Some("error")
    );

    let bad_option = ask(r#"{"type":"analyze","netlist":"","options":{"wrkers":1}}"#);
    assert_eq!(bad_option.get("type").and_then(Json::as_str), Some("error"));

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.get("errors").and_then(Json::as_i64).unwrap() >= 4);

    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
}

#[test]
fn restarted_server_warm_starts_reachability_from_the_disk_store() {
    let dir = std::env::temp_dir().join(format!("mct-serve-store-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fixed = Json::parse(r#"{"delay_variation":null}"#).unwrap();

    // Session 1: a default-options run persists its reach snapshot (and
    // report) to the store directory.
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let first = client.analyze(FIG2, "bench", Some("fig2"), None).unwrap();
    assert_eq!(cache_label(&first), "miss");
    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();

    // Session 2 (the "restarted daemon"): different options, so the
    // report cache misses — but the reachable-state snapshot comes back
    // from disk and the fixpoint is never re-run. `warm_source: "disk"`
    // is the envelope's proof of that provenance.
    let (addr2, thread2) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client2 = Client::connect(addr2).unwrap();
    let warm = client2
        .analyze(FIG2, "bench", Some("fig2"), Some(&fixed))
        .unwrap();
    assert_eq!(
        cache_label(&warm),
        "warm",
        "a restarted daemon must warm-start from the persisted snapshot"
    );
    assert_eq!(
        warm.get("warm_source").and_then(Json::as_str),
        Some("disk"),
        "the snapshot must come from the store, not this process's memory"
    );
    let stats = client2.stats().unwrap();
    let persistence = stats.get("persistence").expect("persistence stats");
    assert_eq!(
        persistence.get("store_configured").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        persistence.get("reach_hits").and_then(Json::as_i64),
        Some(1),
        "exactly one snapshot must have been loaded from disk"
    );
    client2.shutdown().unwrap();
    thread2.join().unwrap().unwrap();

    // Control: the same fixed-options run cold on a storeless server.
    // Warm-starting from a disk artifact must not change a byte.
    let (addr3, thread3) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client3 = Client::connect(addr3).unwrap();
    let cold = client3
        .analyze(FIG2, "bench", Some("fig2"), Some(&fixed))
        .unwrap();
    assert_eq!(cache_label(&cold), "miss");
    assert_eq!(
        report_text(&warm),
        report_text(&cold),
        "a disk warm start must replay the cold report byte for byte"
    );
    client3.shutdown().unwrap();
    thread3.join().unwrap().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deleted_store_directory_degrades_to_cold_analysis() {
    let dir = std::env::temp_dir().join(format!("mct-serve-store-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let first = client.analyze(FIG2, "bench", Some("fig2"), None).unwrap();
    assert_eq!(cache_label(&first), "miss");
    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();

    // Kill the store between sessions — every persisted artifact is gone.
    std::fs::remove_dir_all(&dir).unwrap();

    // The restarted daemon must come up, treat the empty store as a cold
    // cache, and still answer correctly.
    let (addr2, thread2) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client2 = Client::connect(addr2).unwrap();
    let revived = client2.analyze(FIG2, "bench", Some("fig2"), None).unwrap();
    assert_eq!(
        cache_label(&revived),
        "miss",
        "a killed store directory must degrade to a cold analysis"
    );
    assert_eq!(
        report_text(&first),
        report_text(&revived),
        "the cold re-analysis must reproduce the original report"
    );
    client2.shutdown().unwrap();
    thread2.join().unwrap().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_submissions_coalesce_into_one_analysis() {
    const K: usize = 4;
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        workers: K,
        ..ServerConfig::default()
    });

    // K clients submit the same circuit at the same instant. Exactly one
    // of them may run the analysis; the rest must either coalesce onto
    // the leader's in-flight result or (if they arrive after it settles)
    // replay the freshly cached entry.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(K));
    let mut handles = Vec::new();
    for _ in 0..K {
        let barrier = std::sync::Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            barrier.wait();
            client
                .analyze(TRI_CONE, "bench", Some("tri"), None)
                .unwrap()
        }));
    }
    let responses: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let texts: Vec<String> = responses.iter().map(report_text).collect();
    for text in &texts[1..] {
        assert_eq!(
            &texts[0], text,
            "all coalesced responses must carry the identical report"
        );
    }
    for response in &responses {
        let label = cache_label(response);
        assert!(
            matches!(label, "miss" | "coalesced" | "hit"),
            "unexpected cache label {label}"
        );
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("misses").and_then(Json::as_i64),
        Some(1),
        "K identical concurrent submissions must run exactly one analysis"
    );
    let hits = stats.get("hits").and_then(Json::as_i64).unwrap();
    let coalesced = stats.get("coalesced").and_then(Json::as_i64).unwrap();
    assert_eq!(
        hits + coalesced,
        (K - 1) as i64,
        "every non-leader must be answered by coalescing or the fresh cache entry"
    );

    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
}

#[test]
fn byte_budget_bounds_the_memory_and_disk_tiers() {
    let dir = std::env::temp_dir().join(format!("mct-serve-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    const BUDGET: i64 = 4096;

    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        cache_max_bytes: Some(BUDGET as u64),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let first = client.analyze(FIG2, "bench", Some("m"), None).unwrap();
    assert_eq!(cache_label(&first), "miss");
    for netlist in [TWO_REG, TRI_CONE] {
        let response = client.analyze(netlist, "bench", Some("m"), None).unwrap();
        assert_eq!(cache_label(&response), "miss");
        let stats = client.stats().unwrap();
        let mem_bytes = stats.get("mem_bytes").and_then(Json::as_i64).unwrap();
        let disk_bytes = stats
            .get("persistence")
            .and_then(|p| p.get("disk_bytes"))
            .and_then(Json::as_i64)
            .unwrap();
        assert!(
            mem_bytes <= BUDGET,
            "memory tier over budget: {mem_bytes} > {BUDGET}"
        );
        assert!(
            disk_bytes <= BUDGET,
            "disk store over budget: {disk_bytes} > {BUDGET}"
        );
    }

    // Eviction must never compromise correctness: a re-query of the first
    // circuit (whatever tier it now lives in, if any) reproduces the
    // original report byte for byte.
    let again = client.analyze(FIG2, "bench", Some("m"), None).unwrap();
    assert_eq!(report_text(&first), report_text(&again));

    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_answers_every_item_in_submission_order() {
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    // A good circuit, a malformed one, and a rename of the first: the
    // batch must answer all three in order, the bad item failing alone.
    let response = client
        .batch(
            &[
                (FIG2, "bench", Some("m")),
                ("x = FROB(y)", "bench", None),
                (FIG2_RENAMED, "bench", Some("m")),
            ],
            None,
        )
        .unwrap();
    assert_eq!(response.get("type").and_then(Json::as_str), Some("batch"));
    assert_eq!(response.get("count").and_then(Json::as_i64), Some(3));
    let responses = response.get("responses").and_then(Json::as_arr).unwrap();
    assert_eq!(responses.len(), 3);
    for (seq, item) in responses.iter().enumerate() {
        assert_eq!(
            item.get("seq").and_then(Json::as_i64),
            Some(seq as i64),
            "responses must be tagged in submission order"
        );
    }
    assert_eq!(cache_label(&responses[0]), "miss");
    assert_eq!(
        responses[1].get("type").and_then(Json::as_str),
        Some("error"),
        "a bad item must fail alone without failing the batch"
    );
    assert_eq!(
        cache_label(&responses[2]),
        "hit",
        "a later item must see entries cached by an earlier one"
    );
    assert_eq!(report_text(&responses[0]), report_text(&responses[2]));

    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
}

#[test]
fn options_request_reports_server_defaults() {
    let (addr, thread) = start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        default_time_budget_ms: Some(30_000),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let response = client
        .request(&Json::parse(r#"{"type":"options"}"#).unwrap())
        .unwrap();
    assert_eq!(response.get("type").and_then(Json::as_str), Some("options"));
    let defaults = response.get("defaults").unwrap();
    assert_eq!(
        defaults.get("time_budget_ms").and_then(Json::as_i64),
        Some(30_000),
        "the per-request default budget must surface in the defaults"
    );
    assert_eq!(
        defaults.get("use_reachability").and_then(Json::as_bool),
        Some(true)
    );
    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
}
