//! The six project rules.
//!
//! Each rule is grounded in a bug class this repo has actually shipped
//! (see README § Static analysis): scope is therefore deliberately
//! narrow — the paths where the invariant is load-bearing — rather than
//! workspace-wide pattern matching that would drown signal in noise.

use crate::report::Finding;
use crate::scan::{FileIndex, Function};
use crate::Workspace;
use std::collections::BTreeMap;

/// Every rule name `allow(…)` pragmas may reference.
pub const RULES: &[&str] =
    &["cache-key", "lock-order", "determinism", "durability", "float-hygiene", "panic-hygiene"];

/// Runs every rule over the workspace, returning raw findings
/// (suppression and baselines are applied by the report layer).
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    cache_key_completeness(ws, &mut out);
    lock_order(ws, &mut out);
    determinism(ws, &mut out);
    durability(ws, &mut out);
    float_hygiene(ws, &mut out);
    panic_hygiene(ws, &mut out);
    out
}

fn finding(rule: &str, file: &FileIndex, line: u32, message: String) -> Finding {
    Finding {
        rule: rule.to_string(),
        path: file.path.clone(),
        line,
        message,
        excerpt: file.line_text(line).to_string(),
    }
}

// ---------------------------------------------------------------------------
// Rule 1 · cache-key — every serialized field of the task-identity structs
// must participate in `cache_key` (the stale-cache bug class), and
// every solver-config field in `vector_key`, the key under which a job
// reuses a solved stationary vector.
// ---------------------------------------------------------------------------

/// Each key function, with the structs whose fields define the identity
/// it keys.
const KEYED: &[(&str, &[&str])] =
    &[("cache_key", &["TaskSpec", "AlgorithmParams"]), ("vector_key", &["SolverConfig"])];

fn cache_key_completeness(ws: &Workspace, out: &mut Vec<Finding>) {
    for &(key_fn, structs) in KEYED {
        key_completeness(ws, key_fn, structs, out);
    }
}

fn key_completeness(ws: &Workspace, key_fn: &str, structs: &[&str], out: &mut Vec<Finding>) {
    // The function that renders the key, wherever it lives.
    let key_idents: Option<Vec<String>> = ws.files.iter().find_map(|f| {
        f.functions.iter().find(|func| func.name == key_fn && !func.is_test).map(|func| {
            f.tokens[func.body.0..=func.body.1]
                .iter()
                .filter(|t| t.kind == crate::lexer::TokenKind::Ident)
                .map(|t| t.text.clone())
                .collect()
        })
    });
    let mut any_struct = false;
    for file in &ws.files {
        for s in file.structs.iter().filter(|s| structs.contains(&s.name.as_str())) {
            any_struct = true;
            let Some(idents) = &key_idents else { continue };
            for field in &s.fields {
                let skipped = field.attrs.iter().any(|a| a.contains("serde") && a.contains("skip"));
                if skipped {
                    continue;
                }
                if !idents.contains(&field.name) {
                    out.push(finding(
                        "cache-key",
                        file,
                        field.line,
                        format!(
                            "serialized field `{}.{}` does not participate in `{key_fn}`; \
                             a value differing only in this field would collide with a cached \
                             one (add it to the key, `#[serde(skip)]` it, or exempt it \
                             with a reasoned pragma)",
                            s.name, field.name
                        ),
                    ));
                }
            }
        }
    }
    if any_struct && key_idents.is_none() {
        // The structs exist but the key renderer is gone — that is itself
        // a completeness failure, anchored at the first keyed struct.
        for file in &ws.files {
            if let Some(s) = file.structs.iter().find(|s| structs.contains(&s.name.as_str())) {
                out.push(finding(
                    "cache-key",
                    file,
                    s.line,
                    format!("found keyed struct `{}` but no `{key_fn}` function to audit", s.name),
                ));
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2 · lock-order — per-function lock-acquisition edges must form an
// acyclic graph (the executor map-lock vs per-dataset-lock hazard).
// ---------------------------------------------------------------------------

struct LockSite {
    /// Canonical lock name (`Type.field.path` or a local binding name).
    name: String,
    /// Token index of the `lock` ident.
    pos: usize,
    /// Token index past which the guard is no longer held.
    scope_end: usize,
    line: u32,
}

fn lock_order(ws: &Workspace, out: &mut Vec<Finding>) {
    // edge -> one (path, line) witness where the second lock is taken
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for file in &ws.files {
        if !(file.path.contains("engine/src/") || file.path.contains("server/src/")) {
            continue;
        }
        for func in file.functions.iter().filter(|f| !f.is_test) {
            let sites = collect_lock_sites(file, func);
            for (ai, a) in sites.iter().enumerate() {
                for b in &sites[ai + 1..] {
                    if b.pos <= a.scope_end && a.name != b.name {
                        edges
                            .entry((a.name.clone(), b.name.clone()))
                            .or_insert((file.path.clone(), b.line));
                    }
                    // Re-acquiring the *same* lock while held is an
                    // immediate self-deadlock with std mutexes.
                    if b.pos <= a.scope_end && a.name == b.name {
                        edges
                            .entry((a.name.clone(), b.name.clone()))
                            .or_insert((file.path.clone(), b.line));
                    }
                }
            }
        }
    }
    // Cycle detection over the aggregated graph.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut state: BTreeMap<&str, u8> = BTreeMap::new(); // 1 = visiting, 2 = done
    let mut stack: Vec<&str> = Vec::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for start in nodes {
        if let Some(cycle) = dfs_cycle(start, &adj, &mut state, &mut stack) {
            // Anchor the report at the edge closing the cycle.
            let a = cycle[cycle.len() - 2].clone();
            let b = cycle[cycle.len() - 1].clone();
            let (path, line) = edges.get(&(a, b)).cloned().unwrap_or_default();
            let file = ws.files.iter().find(|f| f.path == path);
            let msg = format!(
                "lock-acquisition cycle: {} — two call paths can hold these locks in \
                 opposite orders and deadlock; pick one global order",
                cycle.join(" -> ")
            );
            match file {
                Some(f) => out.push(finding("lock-order", f, line, msg)),
                None => out.push(Finding {
                    rule: "lock-order".into(),
                    path,
                    line,
                    message: msg,
                    excerpt: String::new(),
                }),
            }
            return; // one cycle report at a time is plenty
        }
    }
}

fn dfs_cycle<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    state: &mut BTreeMap<&'a str, u8>,
    stack: &mut Vec<&'a str>,
) -> Option<Vec<String>> {
    match state.get(node) {
        Some(2) => return None,
        Some(1) => {
            // Found a back edge: the cycle is the stack suffix from the
            // first occurrence of `node`, plus `node` again to close it.
            let from = stack.iter().position(|n| *n == node).unwrap_or(0);
            let mut cycle: Vec<String> = stack[from..].iter().map(|s| s.to_string()).collect();
            cycle.push(node.to_string());
            return Some(cycle);
        }
        _ => {}
    }
    state.insert(node, 1);
    stack.push(node);
    if let Some(nexts) = adj.get(node) {
        for next in nexts {
            if let Some(c) = dfs_cycle(next, adj, state, stack) {
                return Some(c);
            }
        }
    }
    stack.pop();
    state.insert(node, 2);
    None
}

/// Finds `.lock()` call sites in a function body and computes, for each,
/// a canonical name and how long the guard is held.
fn collect_lock_sites(file: &FileIndex, func: &Function) -> Vec<LockSite> {
    use crate::lexer::TokenKind::Ident;
    let (open, close) = func.body;
    let toks = &file.tokens;
    let mut sites = Vec::new();
    let mut stmt_start = open + 1;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        let is_lock = t.kind == Ident
            && t.text == "lock"
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(')'));
        if !is_lock {
            i += 1;
            continue;
        }
        let name = receiver_chain_name(file, func, i);
        // A `let` binding holds the guard only when the binding *is* the
        // guard: `.lock()` possibly wrapped in guard-preserving adapters
        // (`unwrap` / `expect` / `unwrap_or_else` on a poisoned-lock
        // result) and then bound directly. A longer chain —
        // `x.lock().…().get(id).copied()` — consumes the guard inside
        // the statement, so the binding is plain data.
        let mut after_chain = i + 3; // past `lock ( )`
        loop {
            let adapter = toks.get(after_chain).is_some_and(|t| t.is_punct('.'))
                && toks.get(after_chain + 1).is_some_and(|t| {
                    t.is_ident("unwrap") || t.is_ident("expect") || t.is_ident("unwrap_or_else")
                })
                && toks.get(after_chain + 2).is_some_and(|t| t.is_punct('('));
            if !adapter {
                break;
            }
            let mut depth = 0i32;
            let mut j = after_chain + 2;
            while j < close {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            after_chain = j + 1;
        }
        let binds_guard = toks.get(stmt_start).is_some_and(|t| t.is_ident("let"))
            && toks.get(after_chain).is_some_and(|t| t.is_punct(';'));
        // Held guard (a `let` binding of the guard) or a temporary?
        let scope_end = if binds_guard {
            let binding = toks[stmt_start + 1..i]
                .iter()
                .find(|t| t.kind == Ident && t.text != "mut")
                .map(|t| t.text.clone());
            // Held until `drop(binding)` or the end of the body.
            let mut end = close;
            if let Some(b) = binding {
                let mut j = i;
                while j + 2 < close {
                    if toks[j].is_ident("drop")
                        && toks[j + 1].is_punct('(')
                        && toks[j + 2].is_ident(&b)
                    {
                        end = j;
                        break;
                    }
                    j += 1;
                }
            }
            end
        } else {
            // Temporary: the guard dies at the end of the statement.
            let mut j = i;
            while j < close && !toks[j].is_punct(';') {
                j += 1;
            }
            j
        };
        sites.push(LockSite { name, pos: i, scope_end, line: t.line });
        i += 1;
    }
    sites
}

/// Names the lock guarded at token index `lock_idx` (the `lock` ident):
/// the dotted receiver chain, with a leading `self` replaced by the
/// enclosing `impl` type, or the bare local variable name.
fn receiver_chain_name(file: &FileIndex, func: &Function, lock_idx: usize) -> String {
    use crate::lexer::TokenKind::Ident;
    let toks = &file.tokens;
    // Walk backwards over `ident . ident . … .` ending at lock_idx - 1.
    let mut parts: Vec<String> = Vec::new();
    let mut j = lock_idx - 1; // the `.` before `lock`
    loop {
        if j == 0 || !toks[j].is_punct('.') {
            break;
        }
        let recv = &toks[j - 1];
        if recv.kind == Ident || recv.is_ident("self") {
            parts.push(recv.text.clone());
            if j < 2 {
                break;
            }
            j -= 2;
        } else {
            // Chain starts at a call or index result — name it opaquely.
            parts.push("<expr>".to_string());
            break;
        }
    }
    parts.reverse();
    if parts.first().is_some_and(|p| p == "self") {
        let ty = func.impl_type.clone().unwrap_or_else(|| "Self".into());
        parts[0] = ty;
    }
    if parts.is_empty() {
        "<expr>".to_string()
    } else {
        parts.join(".")
    }
}

// ---------------------------------------------------------------------------
// Rule 3 · determinism — no wall clocks or hash-ordered iteration in the
// digest / snapshot / image / scenario-oracle paths (bit-deterministic
// replay is an acceptance criterion of PRs 6–9).
// ---------------------------------------------------------------------------

/// Files where the *entire* file is a replay-determinism surface.
const DETERMINISM_FILES: &[&str] = &[
    "store/src/digest.rs",
    "store/src/snapshot.rs",
    "store/src/image.rs",
    "engine/src/persist.rs",
    "scenario/src/runner.rs",
];

/// Crates in which `*digest*` / `*stats*` / `*oracle*` functions are also
/// determinism surfaces (their output is compared or serialized).
const DETERMINISM_CRATES: &[&str] = &["engine/src/", "store/src/", "scenario/src/"];

fn determinism(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        let whole_file = DETERMINISM_FILES.iter().any(|f| file.path.ends_with(f));
        let crate_scoped = DETERMINISM_CRATES.iter().any(|c| file.path.contains(c));
        if !whole_file && !crate_scoped {
            continue;
        }
        // Hash-ordered fields declared in this file (used for the
        // iteration check inside scoped functions).
        let hash_fields: Vec<&str> = file
            .structs
            .iter()
            .flat_map(|s| &s.fields)
            .filter(|f| f.ty.contains("HashMap") || f.ty.contains("HashSet"))
            .map(|f| f.name.as_str())
            .collect();
        let scoped_fn = |name: &str| {
            name.contains("digest") || name.contains("stats") || name.contains("oracle")
        };
        let flag_range = |lo: usize, hi: usize, out: &mut Vec<Finding>| {
            scan_determinism_range(file, lo, hi, whole_file, &hash_fields, out);
        };
        if whole_file {
            // Everything outside #[cfg(test)] is in scope; use function
            // granularity plus top-level items via a full-token sweep
            // that skips test lines.
            flag_range(0, file.tokens.len(), out);
        } else {
            for func in file.functions.iter().filter(|f| !f.is_test && scoped_fn(&f.name)) {
                flag_range(func.body.0, func.body.1 + 1, out);
            }
        }
    }
}

fn scan_determinism_range(
    file: &FileIndex,
    lo: usize,
    hi: usize,
    whole_file: bool,
    hash_fields: &[&str],
    out: &mut Vec<Finding>,
) {
    use crate::lexer::TokenKind::Ident;
    const ITER_CALLS: &[&str] = &["iter", "iter_mut", "keys", "values", "values_mut", "drain"];
    let toks = &file.tokens;
    let mut i = lo;
    while i < hi.min(toks.len()) {
        let t = &toks[i];
        if t.kind != Ident || file.is_test_line(t.line) {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            // `SystemTime::now` / `Instant::now`
            "SystemTime" | "Instant"
                if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident("now")) =>
            {
                out.push(finding(
                    "determinism",
                    file,
                    t.line,
                    format!(
                        "`{}::now` in a replay-determinism path; a replayed run would \
                         observe a different clock and diverge — thread the time in as data",
                        t.text
                    ),
                ));
                i += 4;
                continue;
            }
            // In whole-file surfaces, *any* hash-ordered collection is out.
            "HashMap" | "HashSet" if whole_file => {
                out.push(finding(
                    "determinism",
                    file,
                    t.line,
                    format!(
                        "`{}` in a replay-determinism file; its iteration order varies \
                         run-to-run — use `BTree{}` or sort before iterating",
                        t.text,
                        t.text.trim_start_matches("Hash")
                    ),
                ));
            }
            // In fn-scoped surfaces, flag iteration over hash-ordered
            // fields (and fresh local hash collections).
            "HashMap" | "HashSet" => {
                out.push(finding(
                    "determinism",
                    file,
                    t.line,
                    format!("`{}` constructed inside a digest/stats/oracle function", t.text),
                ));
            }
            name if hash_fields.contains(&name)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.kind == Ident && ITER_CALLS.contains(&n.text.as_str())) =>
            {
                out.push(finding(
                    "determinism",
                    file,
                    t.line,
                    format!(
                        "iterating hash-ordered field `{}` in a determinism path; order \
                         varies run-to-run — use `BTreeMap`/`BTreeSet` or collect and sort",
                        name
                    ),
                ));
            }
            // `for … in &self.field {` / `for … in &field {`
            name if hash_fields.contains(&name)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('{'))
                && preceded_by_in(toks, i) =>
            {
                out.push(finding(
                    "determinism",
                    file,
                    t.line,
                    format!("iterating hash-ordered field `{}` in a `for` loop", name),
                ));
            }
            _ => {}
        }
        i += 1;
    }
}

/// Whether the chain ending at ident index `i` is the object of a `for
/// … in` clause (looking back over `self`, `.`, `&`, `mut`).
fn preceded_by_in(toks: &[crate::lexer::Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let p = &toks[j - 1];
        if p.is_punct('.') || p.is_punct('&') || p.is_ident("self") || p.is_ident("mut") {
            j -= 1;
        } else {
            break;
        }
    }
    j > 0 && toks[j - 1].is_ident("in")
}

// ---------------------------------------------------------------------------
// Rule 4 · durability — temp-write + rename must sync before the rename,
// and engine commit paths must journal before they invalidate/ack (the
// PR 9 degraded-mode contract).
// ---------------------------------------------------------------------------

fn durability(ws: &Workspace, out: &mut Vec<Finding>) {
    use crate::lexer::TokenKind::Ident;
    const WRITES: &[&str] = &["write_all", "write", "write_vectored", "write_fmt"];
    const SYNCS: &[&str] = &["sync_all", "sync_data", "sync", "flush_and_sync"];
    for file in &ws.files {
        if file.path.contains("store/src/") {
            for func in file.functions.iter().filter(|f| !f.is_test) {
                // Functions *implementing* rename primitives are the
                // mechanism, not a use site.
                if func.name.contains("rename") {
                    continue;
                }
                let toks = &file.tokens[func.body.0..=func.body.1];
                let call = |i: usize, names: &[&str]| {
                    toks[i].kind == Ident
                        && names.contains(&toks[i].text.as_str())
                        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                };
                let first_rename = (0..toks.len()).find(|&i| call(i, &["rename"]));
                let Some(r) = first_rename else { continue };
                let wrote_before = (0..r).any(|i| call(i, WRITES));
                let synced_before = (0..r).any(|i| call(i, SYNCS));
                if wrote_before && !synced_before {
                    out.push(finding(
                        "durability",
                        file,
                        file.tokens[func.body.0 + r].line,
                        format!(
                            "`{}` writes a temp file and renames it into place without a \
                             sync in between; a crash after the rename can publish a \
                             hole-filled file — call `sync_all`/`sync_data` first",
                            func.name
                        ),
                    ));
                }
            }
        }
        if file.path.contains("engine/src/") {
            for func in file.functions.iter().filter(|f| !f.is_test) {
                let toks = &file.tokens[func.body.0..=func.body.1];
                let pos = |name: &str| {
                    (0..toks.len()).find(|&i| toks[i].kind == Ident && toks[i].text == name)
                };
                let Some(inval) = pos("invalidate_dataset") else { continue };
                if pos("persist").is_none() {
                    continue; // not a durable commit path
                }
                match pos("append") {
                    Some(ap) if ap < inval => {}
                    _ => out.push(finding(
                        "durability",
                        file,
                        file.tokens[func.body.0 + inval].line,
                        format!(
                            "`{}` acks a mutation (cache invalidation) without first \
                             journaling it; a crash between the two loses an \
                             acknowledged write — append to the journal before \
                             committing",
                            func.name
                        ),
                    )),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5 · float-hygiene — no `as f32` narrowing in the certified push /
// top-k modules (PR 8 keeps certified bounds in f64 end to end).
// ---------------------------------------------------------------------------

fn float_hygiene(ws: &Workspace, out: &mut Vec<Finding>) {
    use crate::lexer::TokenKind::Ident;
    for file in &ws.files {
        if !(file.path.ends_with("core/src/push.rs") || file.path.ends_with("core/src/topk.rs")) {
            continue;
        }
        for (i, t) in file.tokens.iter().enumerate() {
            if t.kind == Ident
                && t.text == "as"
                && file.tokens.get(i + 1).is_some_and(|n| n.is_ident("f32"))
                && !file.is_test_line(t.line)
            {
                out.push(finding(
                    "float-hygiene",
                    file,
                    t.line,
                    "`as f32` narrowing in a certified-bound module; the residual \
                     certificate is only valid if every term stays f64"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6 · panic-hygiene — no `unwrap` / `expect` / `panic!` in non-test
// serving-path code; a panic in a worker poisons nothing but kills the
// request and skews shed/deadline accounting.
// ---------------------------------------------------------------------------

fn panic_hygiene(ws: &Workspace, out: &mut Vec<Finding>) {
    use crate::lexer::TokenKind::Ident;
    const SCOPES: &[&str] = &["engine/src/", "server/src/", "store/src/"];
    for file in &ws.files {
        if !SCOPES.iter().any(|s| file.path.contains(s)) {
            continue;
        }
        for func in file.functions.iter().filter(|f| !f.is_test) {
            let (open, close) = func.body;
            for i in open..=close {
                let t = &file.tokens[i];
                if t.kind != Ident || file.is_test_line(t.line) {
                    continue;
                }
                let hit = match t.text.as_str() {
                    "unwrap" | "expect" => {
                        i > 0
                            && file.tokens[i - 1].is_punct('.')
                            && file.tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                    }
                    "panic" | "unreachable" | "todo" | "unimplemented" => {
                        file.tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
                    }
                    _ => false,
                };
                if hit {
                    out.push(finding(
                        "panic-hygiene",
                        file,
                        t.line,
                        format!(
                            "`{}` in non-test serving-path code; return a typed error \
                             (or suppress with a reasoned pragma if provably \
                             unreachable)",
                            t.text
                        ),
                    ));
                }
            }
        }
    }
}
