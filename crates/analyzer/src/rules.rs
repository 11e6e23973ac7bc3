//! The lint rule catalog. Each rule is a pure function over a file's
//! token stream (plus, for the registry check, the workspace-wide name
//! table). DESIGN.md §8 documents rule semantics and the allow policy.

use std::collections::HashSet;

use crate::lexer::{Tok, Token};
use crate::{FileClass, Violation};

/// Rule id: `std::sync::{Mutex,RwLock,Condvar}` outside `shims/`.
pub const RULE_STD_SYNC: &str = "no-std-sync";
/// Rule id: `.unwrap()` / `.expect(` in guarded non-test code.
pub const RULE_UNWRAP: &str = "no-unwrap";
/// Rule id: obs record call passed a string literal instead of a
/// `obs::names` const.
pub const RULE_OBS_NAMES: &str = "obs-names";
/// Rule id: `obs::names` const that no call site uses.
pub const RULE_OBS_DEAD_NAME: &str = "obs-dead-name";
/// Rule id: wildcard `_ =>` arm in a `match` over `CommError`.
pub const RULE_COMM_WILDCARD: &str = "comm-wildcard";
/// Rule id: a `// lint: allow(...)` directive with no justification.
pub const RULE_ALLOW_REASON: &str = "allow-needs-reason";
/// Rule id: hardcoded `Duration::from_*` in `collectives/src` outside
/// the deadline controller.
pub const RULE_DEADLINE_LITERALS: &str = "deadline-literals";
/// Rule id: iteration over a std `HashMap`/`HashSet` in SPMD-decision
/// code without an order-insensitive consumer ([`crate::flow`]).
pub const RULE_UNORDERED_ITER: &str = "spmd-unordered-iteration";
/// Rule id: collective op lexically dominated by a rank-conditional
/// branch ([`crate::flow`]).
pub const RULE_RANK_COLLECTIVE: &str = "spmd-rank-divergent-collective";
/// Rule id: `Instant`/`SystemTime`-derived value flowing into a branch
/// condition or collective payload in a verdict module ([`crate::flow`]).
pub const RULE_WALLCLOCK: &str = "spmd-wallclock-decision";
/// Rule id: `sum`/`fold`/`product` reduction over an unordered
/// container ([`crate::flow`]).
pub const RULE_FLOAT_ACCUM: &str = "float-accum-order";

/// The std primitives that must come from `shims/parking_lot` instead
/// (the lock doctor instruments the shim — a std lock is invisible to
/// it, which is exactly why this rule exists).
const BANNED_SYNC: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// The obs record functions whose name argument must be a registry
/// const. Read-side helpers (`spans_named`, `counter_value`, …) are
/// deliberately not listed: literals there can only fail a test, not
/// silently fork the name space.
const OBS_RECORD_FNS: [&str; 5] = [
    "span",
    "deferred_span",
    "counter_add",
    "record_hist",
    "set_gauge",
];

/// Record fns living one module below `obs` whose name arguments must
/// also come from the `obs::names` registry.
const OBS_MODULE_RECORD_FNS: [(&str, &str); 1] = [("flight", "annotate")];

/// Line spans (1-based, inclusive) covered by `#[cfg(test)]` items and
/// `#[test]` functions. Rules that exempt test code consult this.
#[derive(Debug, Default)]
pub struct TestRegions {
    spans: Vec<(u32, u32)>,
}

impl TestRegions {
    /// Whether `line` falls inside any test region.
    #[must_use]
    pub fn contains(&self, line: u32) -> bool {
        self.spans.iter().any(|&(a, b)| (a..=b).contains(&line))
    }
}

/// Finds `#[cfg(test)]` / `#[test]` attributes and marks the line span
/// of the brace-delimited item that follows each.
#[must_use]
pub fn test_regions(toks: &[Token]) -> TestRegions {
    let mut regions = TestRegions::default();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let is_test_attr = toks.get(i + 2).is_some_and(|t| t.is_ident("test"))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(']'));
            let is_cfg_test = toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
                && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
                && toks.get(i + 6).is_some_and(|t| t.is_punct(']'));
            if is_test_attr || is_cfg_test {
                let start_line = toks[i].line;
                // Scan to the item's opening brace, then balance.
                let mut j = i + if is_test_attr { 4 } else { 7 };
                while j < toks.len() && !toks[j].is_punct('{') {
                    j += 1;
                }
                let mut depth = 0i32;
                while j < toks.len() {
                    if toks[j].is_punct('{') {
                        depth += 1;
                    } else if toks[j].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let end_line = toks.get(j).map_or(u32::MAX, |t| t.line);
                regions.spans.push((start_line, end_line));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// `no-std-sync`: flags `std :: sync :: {Mutex|RwLock|Condvar}` and
/// `std :: sync :: { … Mutex … }` use-groups. Everything outside
/// `shims/` must route locks through the shim so the lock doctor sees
/// them.
pub fn check_std_sync(toks: &[Token], out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i + 5 < toks.len() {
        if toks[i].is_ident("std")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("sync")
            && toks[i + 4].is_punct(':')
            && toks[i + 5].is_punct(':')
        {
            let line = toks[i].line;
            match toks.get(i + 6).map(|t| &t.tok) {
                Some(Tok::Ident(name)) if BANNED_SYNC.contains(&name.as_str()) => {
                    out.push(Violation::new(
                        RULE_STD_SYNC,
                        line,
                        format!("std::sync::{name} — use the parking_lot shim so the lock doctor can see this lock"),
                    ));
                }
                Some(Tok::Punct('{')) => {
                    let mut j = i + 7;
                    while j < toks.len() && !toks[j].is_punct('}') {
                        if let Some(name) = toks[j].ident() {
                            if BANNED_SYNC.contains(&name) {
                                out.push(Violation::new(
                                    RULE_STD_SYNC,
                                    toks[j].line,
                                    format!("std::sync::{{{name}}} — use the parking_lot shim so the lock doctor can see this lock"),
                                ));
                            }
                        }
                        j += 1;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// `no-unwrap`: flags `.unwrap()` and `.expect(` outside test regions.
/// The distributed stack's guarded crates must surface failures as
/// typed errors; provable infallibility uses the allow escape hatch.
pub fn check_unwrap(toks: &[Token], tests: &TestRegions, out: &mut Vec<Violation>) {
    for w in toks.windows(3) {
        if !w[0].is_punct('.') || !w[2].is_punct('(') {
            continue;
        }
        let Some(name) = w[1].ident() else { continue };
        if (name == "unwrap" || name == "expect") && !tests.contains(w[1].line) {
            out.push(Violation::new(
                RULE_UNWRAP,
                w[1].line,
                format!(".{name}( — return a typed error, or justify with `// lint: allow(unwrap) — <reason>`"),
            ));
        }
    }
}

/// `obs-names`: flags string literals inside the parens of an
/// `obs::<record fn>(…)` call outside test regions — span and marker
/// names included, not just counters. Names must come from
/// `obs::names`, the single registry the dead-name check audits.
/// Record fns one module deep (`obs::flight::annotate`) are matched
/// via `OBS_MODULE_RECORD_FNS`.
pub fn check_obs_names(toks: &[Token], tests: &TestRegions, out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i + 4 < toks.len() {
        let (fn_name, open) =
            if toks[i].is_ident("obs") && toks[i + 1].is_punct(':') && toks[i + 2].is_punct(':') {
                let direct = toks[i + 3]
                    .ident()
                    .filter(|n| OBS_RECORD_FNS.contains(n))
                    .filter(|_| toks[i + 4].is_punct('('));
                let nested = if i + 7 < toks.len()
                    && toks[i + 4].is_punct(':')
                    && toks[i + 5].is_punct(':')
                    && toks[i + 7].is_punct('(')
                {
                    toks[i + 3]
                        .ident()
                        .zip(toks[i + 6].ident())
                        .filter(|&(m, f)| OBS_MODULE_RECORD_FNS.contains(&(m, f)))
                } else {
                    None
                };
                if let Some(f) = direct {
                    (Some(f.to_string()), i + 5)
                } else if let Some((m, f)) = nested {
                    (Some(format!("{m}::{f}")), i + 8)
                } else {
                    (None, 0)
                }
            } else {
                (None, 0)
            };
        let Some(fn_name) = fn_name else {
            i += 1;
            continue;
        };
        if tests.contains(toks[i].line) {
            i += 1;
            continue;
        }
        let mut depth = 1i32;
        let mut j = open;
        while j < toks.len() && depth > 0 {
            match &toks[j].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth -= 1,
                Tok::Str(s) => out.push(Violation::new(
                    RULE_OBS_NAMES,
                    toks[j].line,
                    format!("string literal \"{s}\" passed to obs::{fn_name} — declare it in obs::names"),
                )),
                Tok::Ident(_) | Tok::Punct(_) => {}
            }
            j += 1;
        }
        i = j;
    }
}

/// `comm-wildcard`: flags a `_ =>` arm at the top level of any `match`
/// whose own arms mention `CommError`. Such matches must enumerate the
/// variants so adding one (or forgetting `Reconfigured`/`Abandoned`) is
/// a compile error, not a silently swallowed case. Nested matches are
/// analyzed independently — an inner match over a different enum keeps
/// its wildcard.
pub fn check_comm_wildcard(toks: &[Token], tests: &TestRegions, out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("match") && !tests.contains(toks[i].line) {
            // Find the match body's opening brace (skip the scrutinee;
            // balance parens/brackets so struct-ish exprs don't confuse
            // us — a `{` at depth 0 opens the body).
            let mut j = i + 1;
            let mut pdepth = 0i32;
            while j < toks.len() {
                match &toks[j].tok {
                    Tok::Punct('(') | Tok::Punct('[') => pdepth += 1,
                    Tok::Punct(')') | Tok::Punct(']') => pdepth -= 1,
                    Tok::Punct('{') if pdepth == 0 => break,
                    Tok::Punct(';') if pdepth == 0 => {
                        // `match` used as an ident-ish thing; bail.
                        j = toks.len();
                    }
                    _ => {}
                }
                j += 1;
            }
            if j >= toks.len() {
                i += 1;
                continue;
            }
            check_match_body(toks, j, tests, out);
        }
        i += 1;
    }
}

/// Analyzes one match body (opening brace at `open`). Returns the index
/// of the matching close brace.
fn check_match_body(
    toks: &[Token],
    open: usize,
    tests: &TestRegions,
    out: &mut Vec<Violation>,
) -> usize {
    let mut mentions_comm_error = false;
    let mut wildcard_at: Option<u32> = None;
    let mut depth = 0i32; // brace depth relative to the body
    let mut pdepth = 0i32; // paren/bracket depth at brace depth 1
    let mut j = open;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('{') => {
                depth += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Punct('(') | Tok::Punct('[') if depth == 1 => pdepth += 1,
            Tok::Punct(')') | Tok::Punct(']') if depth == 1 => pdepth -= 1,
            Tok::Ident(name) if depth >= 1 => {
                if name == "CommError" {
                    mentions_comm_error = true;
                } else if name == "match" && j > open {
                    // Nested match: skip its body (analyzed on its own
                    // by the outer scan) so its arms don't count here.
                    let mut k = j + 1;
                    let mut pd = 0i32;
                    while k < toks.len() {
                        match &toks[k].tok {
                            Tok::Punct('(') | Tok::Punct('[') => pd += 1,
                            Tok::Punct(')') | Tok::Punct(']') => pd -= 1,
                            Tok::Punct('{') if pd == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    if k < toks.len() {
                        let mut d = 0i32;
                        while k < toks.len() {
                            if toks[k].is_punct('{') {
                                d += 1;
                            } else if toks[k].is_punct('}') {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            k += 1;
                        }
                        j = k;
                    }
                } else if name == "_" && depth == 1 && pdepth == 0 && !tests.contains(toks[j].line)
                {
                    // A bare `_` pattern at arm level: `_ =>` or `_ if`.
                    let arm = match (toks.get(j + 1), toks.get(j + 2)) {
                        (Some(a), Some(b)) if a.is_punct('=') && b.is_punct('>') => true,
                        (Some(a), _) if a.is_ident("if") => true,
                        _ => false,
                    };
                    if arm {
                        wildcard_at.get_or_insert(toks[j].line);
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    if mentions_comm_error {
        if let Some(line) = wildcard_at {
            out.push(Violation::new(
                RULE_COMM_WILDCARD,
                line,
                "wildcard `_ =>` in a match over CommError — enumerate the variants so \
                 Reconfigured/Abandoned handling can never be silently skipped"
                    .to_string(),
            ));
        }
    }
    j
}

/// `deadline-literals`: flags `Duration :: from_*(…)` constructions in
/// the guarded collectives core outside test regions. Adaptive budgets
/// made static per-op deadlines legacy: a hardcoded duration in
/// `collectives/src` is either an op budget that belongs in the
/// `DeadlineController` (the one exempt file) or a genuine non-budget
/// constant that must carry a line-scoped allow naming its purpose.
pub fn check_deadline_literals(toks: &[Token], tests: &TestRegions, out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i + 3 < toks.len() {
        if toks[i].is_ident("Duration") && toks[i + 1].is_punct(':') && toks[i + 2].is_punct(':') {
            if let Some(name) = toks[i + 3].ident() {
                if name.starts_with("from_") && !tests.contains(toks[i].line) {
                    out.push(Violation::new(
                        RULE_DEADLINE_LITERALS,
                        toks[i].line,
                        format!(
                            "Duration::{name} — op budgets come from the DeadlineController \
                             (collectives/src/deadline.rs); a true non-budget duration needs \
                             `// lint: allow(deadline-literals) — <what it is>`"
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

/// Extracts the `pub const NAME` declarations from the registry module
/// (`crates/obs/src/names.rs`) as `(name, line)` pairs.
#[must_use]
pub fn registry_consts(toks: &[Token]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for w in toks.windows(3) {
        if w[0].is_ident("pub") && w[1].is_ident("const") {
            if let Some(name) = w[2].ident() {
                out.push((name.to_string(), w[2].line));
            }
        }
    }
    out
}

/// All identifiers in a token stream — the use-side input of the
/// dead-name check.
#[must_use]
pub fn ident_set(toks: &[Token]) -> HashSet<String> {
    toks.iter()
        .filter_map(|t| t.ident().map(String::from))
        .collect()
}

/// `obs-dead-name`: registry consts that no file outside the registry
/// references. A dead name means a recorder was removed (or renamed)
/// without updating the registry — the registry must stay the exact
/// vocabulary of the codebase.
pub fn check_dead_names(
    consts: &[(String, u32)],
    used: &HashSet<String>,
    out: &mut Vec<Violation>,
) {
    for (name, line) in consts {
        if !used.contains(name) {
            out.push(Violation::new(
                RULE_OBS_DEAD_NAME,
                *line,
                format!("obs::names::{name} is declared but never used by any recorder or test"),
            ));
        }
    }
}

/// Which rules run on a file of the given class.
#[must_use]
pub fn rules_for(class: FileClass) -> &'static [&'static str] {
    match class {
        FileClass::Shim => &[],
        FileClass::ObsCrate => &[RULE_STD_SYNC],
        FileClass::GuardedSource => &[
            RULE_STD_SYNC,
            RULE_UNWRAP,
            RULE_OBS_NAMES,
            RULE_DEADLINE_LITERALS,
        ],
        FileClass::DeadlineController => &[RULE_STD_SYNC, RULE_UNWRAP, RULE_OBS_NAMES],
        FileClass::GuardedCommSource => &[
            RULE_STD_SYNC,
            RULE_UNWRAP,
            RULE_OBS_NAMES,
            RULE_COMM_WILDCARD,
        ],
        FileClass::CommMatchSource => &[RULE_STD_SYNC, RULE_OBS_NAMES, RULE_COMM_WILDCARD],
        FileClass::Source => &[RULE_STD_SYNC, RULE_OBS_NAMES],
        FileClass::Test => &[RULE_STD_SYNC],
    }
}
