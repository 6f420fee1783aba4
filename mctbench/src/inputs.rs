//! Seeded input generation: the benchmark seed never reaches the program
//! as a number, only through the circuits and netlist texts built here.

use mct_netlist::{Circuit, NetId, Node};
use mct_prng::SmallRng;

/// Generator seed of the `random_fsm` ladder rows. Cost across generator
/// seeds spans more than two orders of magnitude (see `README.md`), so the
/// machine structure is pinned and the benchmark seed varies names and gate
/// order instead.
pub const FSM_SEED: u64 = 11;

/// A fresh, seed-derived name for net `i`.
fn fresh_name(salt: u64, i: usize) -> String {
    let mut z = salt ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    format!("n{:06x}_{i}", z & 0xff_ffff)
}

/// Rebuilds `circuit` with seed-derived signal names and a seeded random
/// topological order of its gates. Inputs, flip-flops and outputs keep
/// their declaration order (the report's index-valued diagnostics refer to
/// it) and the circuit keeps its name, so the analysis report is
/// byte-identical to the original's.
pub fn permute(circuit: &Circuit, seed: u64) -> Circuit {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0f9a_7e00);
    let salt = rng.next_u64();
    let n = circuit.num_nodes();
    let ids: Vec<NetId> = circuit.iter().map(|(id, _)| id).collect();
    let mut out = Circuit::new(circuit.name());
    let mut map: Vec<Option<NetId>> = vec![None; n];
    let name_of = |id: NetId| fresh_name(salt, id.index());
    for (id, node) in circuit.iter() {
        match node {
            Node::Input { .. } => map[id.index()] = Some(out.add_input(name_of(id))),
            Node::Dff {
                init,
                clock_to_q,
                skew,
                ..
            } => {
                let q = out.add_dff(name_of(id), *init, *clock_to_q);
                if *skew != mct_netlist::Time::ZERO {
                    out.set_dff_skew(q, *skew).expect("fresh flip-flop");
                }
                map[id.index()] = Some(q);
            }
            Node::Gate { .. } => {}
        }
    }
    // Kahn's algorithm, picking a random ready gate each step.
    let mut pending: Vec<usize> = vec![0; n];
    let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut ready: Vec<usize> = Vec::new();
    for (id, node) in circuit.iter() {
        if let Node::Gate { inputs, .. } = node {
            let gate_inputs: Vec<usize> = inputs
                .iter()
                .map(|i| i.index())
                .filter(|&i| matches!(circuit.node(ids[i]), Node::Gate { .. }))
                .collect();
            pending[id.index()] = gate_inputs.len();
            for i in gate_inputs {
                fanout[i].push(id.index());
            }
            if pending[id.index()] == 0 {
                ready.push(id.index());
            }
        }
    }
    while !ready.is_empty() {
        let g = ready.swap_remove(rng.gen_range(0..ready.len()));
        let id = ids[g];
        if let Node::Gate {
            kind,
            inputs,
            pin_delays,
            ..
        } = circuit.node(id)
        {
            let ins: Vec<NetId> = inputs
                .iter()
                .map(|i| map[i.index()].expect("fan-in placed first"))
                .collect();
            map[g] = Some(out.add_gate_with_delays(name_of(id), *kind, &ins, pin_delays.clone()));
        }
        for &f in &fanout[g] {
            pending[f] -= 1;
            if pending[f] == 0 {
                ready.push(f);
            }
        }
    }
    for (id, node) in circuit.iter() {
        if let Node::Dff { data, .. } = node {
            let data = map[data.expect("validated circuit").index()].expect("mapped");
            out.connect_dff_data(&name_of(id), data)
                .expect("fresh flip-flop");
        }
    }
    for &o in circuit.outputs() {
        out.set_output(map[o.index()].expect("mapped"));
    }
    out
}

/// `.bench` text with every signal renamed (seeded) and the gate lines
/// shuffled. The format is declarative, so the shuffle keeps the
/// netlist; the daemon's canonical hash must see through both changes.
pub fn renamed_bench(text: &str, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0eea_11a5_ed00);
    let salt = rng.next_u64();
    let mut names: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut rename = |s: &str| -> String {
        let k = names.len();
        names
            .entry(s.to_owned())
            .or_insert_with(|| fresh_name(salt, k))
            .clone()
    };
    let mut decls = Vec::new();
    let mut gates = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let open = line.find('(').expect("bench line has `(`");
        let close = line.rfind(')').expect("bench line has `)`");
        let args: Vec<String> = line[open + 1..close]
            .split(',')
            .map(|a| rename(a.trim()))
            .collect();
        match line.find('=') {
            Some(eq) => {
                let lhs = rename(line[..eq].trim());
                let head = line[eq + 1..open].trim();
                let stmt = format!("{lhs} = {head}({})", args.join(", "));
                // Flip-flops keep their declaration order: it is the
                // circuit's register layout, which index diagnostics use.
                if head.eq_ignore_ascii_case("DFF") {
                    decls.push(stmt);
                } else {
                    gates.push(stmt);
                }
            }
            None => decls.push(format!("{}({})", &line[..open], args.join(", "))),
        }
    }
    for i in (1..gates.len()).rev() {
        gates.swap(i, rng.gen_range(0..i + 1));
    }
    let mut out = decls.join("\n");
    out.push('\n');
    out.push_str(&gates.join("\n"));
    out.push('\n');
    out
}

/// A one-cone delay edit of a `.bench` netlist: pin `pin` of gate `gate`
/// is routed through a fresh buffer. The logic function is unchanged; the
/// mapped delay model adds the buffer's delay to every path through that
/// pin, so only the cone owning the gate changes.
pub fn buffer_edit(text: &str, gate: &str, pin: usize) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    let mut hit = false;
    for line in text.lines() {
        let trimmed = line.trim();
        let is_target = trimmed
            .split_once('=')
            .is_some_and(|(lhs, rhs)| lhs.trim() == gate && !rhs.trim_start().starts_with("DFF"));
        if !is_target {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        hit = true;
        let open = trimmed.find('(').expect("gate line has `(`");
        let close = trimmed.rfind(')').expect("gate line has `)`");
        let mut args: Vec<String> = trimmed[open + 1..close]
            .split(',')
            .map(|a| a.trim().to_owned())
            .collect();
        assert!(pin < args.len(), "gate `{gate}` has no pin {pin}");
        let buf = format!("eco_{gate}_{pin}");
        out.push_str(&format!("{buf} = BUFF({})\n", args[pin]));
        args[pin] = buf;
        out.push_str(&format!("{}({})\n", &trimmed[..open], args.join(", ")));
    }
    assert!(hit, "edit target `{gate}` is not a gate of the netlist");
    out
}

/// Gates of `circuit`, grouped by the cone of influence that owns them
/// (cones in [`mct_netlist::decompose`] order; names are the parent's).
pub fn gates_by_cone(circuit: &Circuit) -> Vec<Vec<String>> {
    mct_netlist::decompose(circuit)
        .iter()
        .map(|cone| {
            cone.circuit
                .iter()
                .filter_map(|(_, node)| match node {
                    Node::Gate { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .collect()
        })
        .collect()
}
