//! In-tree source-policy linter.
//!
//! Walks every `.rs` file of the workspace (no external deps, a simple
//! line/token scanner over comment- and string-stripped source) and
//! enforces the repo's source policy:
//!
//! 1. **No `unsafe`** — the token `unsafe` appears in no file, tests
//!    included.
//! 2. **Forbid headers** — every crate root (`crates/*/src/lib.rs` and
//!    the facade `src/lib.rs`) carries `#![forbid(unsafe_code)]`;
//!    `deny` does not pass, since a module could re-allow it.
//! 3. **No `unwrap` in library code** — `.unwrap()` is banned outside
//!    `#[cfg(test)]` regions and `src/bin/` CLIs; failures must travel
//!    as typed errors (`StaError` and friends).
//! 4. **`expect` needs a license** — `.expect(` in library code must be
//!    listed in `crates/bench/static_audit_allow.txt` (invariant-backed
//!    proofs like builder arity).
//! 5. **No `Ordering::Relaxed`** — in any file: nothing in the tree
//!    uses relaxed atomics, and a new one must argue its ordering.
//! 6. **Float `==` confinement** — bitwise float equality is a
//!    deliberate tool of the bit-stability modules; everywhere else it
//!    is a bug magnet and must be allowlisted.
//! 7. **No stale licenses** — an allowlist entry that licenses no line
//!    of the tree is itself a violation, so the list cannot outlive the
//!    code it was written for.
//!
//! Exit status 0 = clean, 1 = violations (printed one per line as
//! `rule path:line: source`), 2 = usage/IO error. CI runs this next to
//! `cargo clippy -- -D warnings`.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One policy violation: which rule, where, and the offending line.
struct Violation {
    rule: &'static str,
    path: String,
    line: usize,
    text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule,
            self.path,
            self.line,
            self.text.trim()
        )
    }
}

/// Where the allowlist lives, relative to the repo root.
const ALLOWLIST: &str = "crates/bench/static_audit_allow.txt";

/// One allowlist entry: `rule  path-suffix  line-substring` (whitespace
/// separated; the substring may be `*` for "any line in that file").
struct Allow {
    rule: String,
    path_suffix: String,
    needle: String,
    /// Line of the entry in the allowlist file (for stale reports).
    line: usize,
    /// The entry as written.
    text: String,
}

fn parse_allowlist(text: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(suffix)) = (parts.next(), parts.next()) else {
            continue;
        };
        out.push(Allow {
            rule: rule.to_string(),
            path_suffix: suffix.to_string(),
            needle: parts.next().unwrap_or("*").trim().to_string(),
            line: idx + 1,
            text: line.to_string(),
        });
    }
    out
}

/// Whether some entry licenses `rule` on this line; every entry that
/// does is marked in `used`.
fn allowed(allows: &[Allow], used: &mut [bool], rule: &str, path: &str, line_text: &str) -> bool {
    let mut hit = false;
    for (a, u) in allows.iter().zip(used.iter_mut()) {
        if a.rule == rule
            && path.ends_with(&a.path_suffix)
            && (a.needle == "*" || line_text.contains(&a.needle))
        {
            *u = true;
            hit = true;
        }
    }
    hit
}

/// Rule 7: every allowlist entry that licensed nothing.
fn stale_allows(allows: &[Allow], used: &[bool]) -> Vec<Violation> {
    allows
        .iter()
        .zip(used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| Violation {
            rule: "stale-allow",
            path: ALLOWLIST.into(),
            line: a.line,
            text: a.text.clone(),
        })
        .collect()
}

/// Strip comments and string/char literals from Rust source, preserving
/// the line structure, so token rules never fire inside a doc example or
/// a message string. Replaced regions become spaces.
fn code_mask(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            out[i] = b'\n';
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < b.len() {
            if b[i + 1] == b'/' {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if b[i + 1] == b'*' {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        out[i] = b'\n';
                    }
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                continue;
            }
        }
        // Raw strings: r"…", r#"…"#, br##"…"## etc.
        if (c == b'r' || c == b'b') && !prev_is_ident(b, i) {
            let mut j = i;
            if b[j] == b'b' && j + 1 < b.len() && b[j + 1] == b'r' {
                j += 1;
            }
            if b[j] == b'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < b.len() && b[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < b.len() && b[k] == b'"' {
                    // Copy the prefix so `r` stays a code token boundary.
                    out[i..k + 1].copy_from_slice(&b[i..k + 1]);
                    i = k + 1;
                    'raw: while i < b.len() {
                        if b[i] == b'\n' {
                            out[i] = b'\n';
                        }
                        if b[i] == b'"' {
                            let mut h = 0usize;
                            while i + 1 + h < b.len() && b[i + 1 + h] == b'#' && h < hashes {
                                h += 1;
                            }
                            if h == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Plain strings (and byte strings — the `b` was copied above
        // only for raw forms; a lone `b"` reaches here at `"`.)
        if c == b'"' {
            i += 1;
            while i < b.len() {
                if b[i] == b'\n' {
                    out[i] = b'\n';
                }
                if b[i] == b'\\' {
                    // Preserve line-continuation newlines (`"… \` + EOL).
                    if i + 1 < b.len() && b[i + 1] == b'\n' {
                        out[i + 1] = b'\n';
                    }
                    i += 2;
                    continue;
                }
                if b[i] == b'"' {
                    i += 1;
                    break;
                }
                i += 1;
            }
            continue;
        }
        // Char literals vs lifetimes.
        if c == b'\'' {
            if i + 1 < b.len() && b[i + 1] == b'\\' {
                // '\n', '\u{..}' …
                i += 2;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
                continue;
            }
            if i + 2 < b.len() && b[i + 2] == b'\'' {
                // 'x'
                i += 3;
                continue;
            }
            // Lifetime: keep scanning normally past the quote.
            out[i] = c;
            i += 1;
            continue;
        }
        out[i] = c;
        i += 1;
    }
    String::from_utf8(out).unwrap_or_default()
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Whole-word occurrences of `word` in `line`.
fn has_word(line: &str, word: &str) -> bool {
    let b = line.as_bytes();
    let w = word.as_bytes();
    let mut start = 0usize;
    while let Some(p) = line[start..].find(word) {
        let at = start + p;
        let before_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let after = at + w.len();
        let after_ok = after >= b.len() || !(b[after].is_ascii_alphanumeric() || b[after] == b'_');
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Mark the lines belonging to `#[cfg(test)]`-gated items (brace-tracked
/// from the attribute to the item's closing brace).
fn test_region_lines(mask: &str) -> Vec<bool> {
    let lines: Vec<&str> = mask.lines().collect();
    let mut in_test = vec![false; lines.len()];
    let mut l = 0usize;
    while l < lines.len() {
        if lines[l].trim_start().starts_with("#[cfg(test)]") {
            // Find the opening brace of the gated item, then track depth.
            let mut depth = 0i64;
            let mut opened = false;
            let mut m = l;
            while m < lines.len() {
                in_test[m] = true;
                for ch in lines[m].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                m += 1;
            }
            l = m + 1;
        } else {
            l += 1;
        }
    }
    in_test
}

/// A token is "float-like" if it is a float literal (`1.5`, `0.`,
/// `1e-9`) or a named float constant (`INFINITY`, `NEG_INFINITY`,
/// `NAN`).
fn float_like(token: &str) -> bool {
    let t = token.trim();
    if t.ends_with("INFINITY") || t.ends_with("NAN") {
        return true;
    }
    let mut digits = false;
    let mut dot = false;
    let mut exp = false;
    for (i, c) in t.char_indices() {
        match c {
            '0'..='9' | '_' => digits = true,
            '.' => dot = true,
            // The operand token may be cut at a sign (`1.5e-3` → `1.5e`);
            // a digits-then-exponent prefix is already float-shaped.
            'e' | 'E' if digits => exp = true,
            '+' | '-' if exp => {}
            'f' if t[i..].starts_with("f64") || t[i..].starts_with("f32") => return digits,
            _ => return false,
        }
    }
    digits && (dot || exp)
}

/// Does this masked line compare something against a float with `==` or
/// `!=`? (Bitwise comparisons go through `.to_bits()` and never look
/// float-like.)
fn has_float_eq(line: &str) -> bool {
    let b = line.as_bytes();
    let mut i = 0usize;
    while i + 1 < b.len() {
        let op = (b[i] == b'=' || b[i] == b'!') && b[i + 1] == b'=';
        // Exclude `<=`, `>=`, `=>`, `===`-ish runs and `!=` vs `!==`.
        let not_cmp_assign = i == 0 || !matches!(b[i - 1], b'<' | b'>' | b'=' | b'+' | b'-');
        let not_fat_arrow = i + 2 >= b.len() || b[i + 2] != b'>';
        if op && not_cmp_assign && not_fat_arrow && (i + 2 >= b.len() || b[i + 2] != b'=') {
            // Right operand.
            let rhs: String = line[i + 2..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':'))
                .collect();
            // Left operand.
            let lhs: String = line[..i]
                .trim_end()
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':'))
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if float_like(&rhs) || float_like(&lhs) {
                return true;
            }
        }
        i += 1;
    }
    false
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Library code is subject to the unwrap/expect/float rules:
/// `src/**` of the facade and of every crate — but not `src/bin/` CLIs.
fn is_lib_code(rel: &str) -> bool {
    let under_src = rel.starts_with("src/") || rel.contains("/src/");
    under_src && !rel.contains("/bin/")
}

fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// Rules 1–6 over one file (`rel` is its repo-relative path); marks the
/// allowlist entries it consumes in `used`.
fn scan_file(rel: &str, src: &str, allows: &[Allow], used: &mut [bool]) -> Vec<Violation> {
    let mask = code_mask(src);
    let in_test = test_region_lines(&mask);
    let lib = is_lib_code(rel);
    let mut violations = Vec::new();
    // 2. `forbid` header on every crate root.
    if is_crate_root(rel) && !mask.lines().any(|l| l.contains("#![forbid(unsafe_code)]")) {
        violations.push(Violation {
            rule: "forbid-header",
            path: rel.into(),
            line: 1,
            text: "crate root lacks #![forbid(unsafe_code)]".into(),
        });
    }

    let src_lines: Vec<&str> = src.lines().collect();
    for (idx, line) in mask.lines().enumerate() {
        let shown = src_lines.get(idx).copied().unwrap_or(line).to_string();
        let mut flag = |rule: &'static str| {
            violations.push(Violation {
                rule,
                path: rel.into(),
                line: idx + 1,
                text: shown.clone(),
            })
        };
        // 1. and 5. apply everywhere, tests included.
        if has_word(line, "unsafe") {
            flag("unsafe-code");
        }
        if line.contains("Ordering::Relaxed") {
            flag("relaxed-ordering");
        }
        if !lib || in_test[idx] {
            continue;
        }
        // 3. No `.unwrap()` in library code.
        if line.contains(".unwrap()") {
            flag("unwrap-in-lib");
        }
        // 4. `.expect(` needs an allowlist license.
        if line.contains(".expect(") && !allowed(allows, used, "expect-in-lib", rel, &shown) {
            flag("expect-in-lib");
        }
        // 6. Float equality only in the bit-stability modules.
        if has_float_eq(line) && !allowed(allows, used, "float-eq", rel, &shown) {
            flag("float-eq");
        }
    }
    violations
}

fn scan_repo(root: &Path) -> Result<Vec<Violation>, String> {
    let allow_path = root.join(ALLOWLIST);
    let allow_text = fs::read_to_string(&allow_path)
        .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
    let allows = parse_allowlist(&allow_text);
    let mut used = vec![false; allows.len()];
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "benches", "examples"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();
    if files.is_empty() {
        return Err(format!("no .rs files under {}", root.display()));
    }

    let mut violations = Vec::new();
    let mut lib_roots_seen = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        if is_crate_root(&rel) {
            lib_roots_seen += 1;
        }
        violations.extend(scan_file(&rel, &src, &allows, &mut used));
    }
    if lib_roots_seen < 2 {
        return Err(format!(
            "only {lib_roots_seen} crate roots found — wrong directory? (root: {})",
            root.display()
        ));
    }
    violations.extend(stale_allows(&allows, &used));
    Ok(violations)
}

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let root = match root.canonicalize() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("static_audit: cannot resolve repo root: {e}");
            return ExitCode::from(2);
        }
    };
    match scan_repo(&root) {
        Err(e) => {
            eprintln!("static_audit: {e}");
            ExitCode::from(2)
        }
        Ok(v) if v.is_empty() => {
            println!("static_audit: clean");
            ExitCode::SUCCESS
        }
        Ok(v) => {
            for violation in &v {
                println!("{violation}");
            }
            println!("static_audit: {} violation(s)", v.len());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_strips_comments_strings_and_doc_examples() {
        let src = r#"
/// ```
/// x.unwrap();
/// ```
fn f() {
    let s = "contains unsafe and .unwrap()";
    let c = '"';
    // trailing .expect( note
    real();
}
"#;
        let mask = code_mask(src);
        assert!(!mask.contains("unwrap"), "{mask}");
        assert!(!mask.contains("unsafe"), "{mask}");
        assert!(!mask.contains("expect"), "{mask}");
        assert!(mask.contains("real()"));
        assert_eq!(mask.lines().count(), src.lines().count());
    }

    #[test]
    fn word_matching_does_not_cross_identifiers() {
        assert!(has_word("unsafe fn q()", "unsafe"));
        assert!(!has_word("#![deny(unsafe_code)]", "unsafe"));
        assert!(!has_word("my_unsafe_thing", "unsafe"));
    }

    #[test]
    fn float_eq_detection() {
        assert!(has_float_eq("if tau_ps == 0.0 {"));
        assert!(has_float_eq("if t_in == f64::NEG_INFINITY {"));
        assert!(has_float_eq("x != 1.5e-3"));
        assert!(!has_float_eq("a.to_bits() != b.to_bits()"));
        assert!(!has_float_eq("if n == 0 {"));
        assert!(!has_float_eq("if n <= 0.0 {"));
        assert!(!has_float_eq("Some(x) => y,"));
    }

    #[test]
    fn cfg_test_regions_are_brace_tracked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let t = test_region_lines(src);
        assert_eq!(t, [false, true, true, true, true, false]);
    }

    /// Rule names `scan_file` reports for `src` at `rel`, with the given
    /// allowlist text.
    fn rules(rel: &str, src: &str, allow: &str) -> Vec<&'static str> {
        let allows = parse_allowlist(allow);
        let mut used = vec![false; allows.len()];
        scan_file(rel, src, &allows, &mut used)
            .iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn unsafe_is_flagged_in_every_file() {
        let src = "fn f() {\n    unsafe { g() }\n}\n";
        assert_eq!(rules("tests/t.rs", src, ""), ["unsafe-code"]);
        assert_eq!(rules("crates/x/src/m.rs", src, ""), ["unsafe-code"]);
        // Comments, strings and `unsafe_code` lint names are not tokens.
        let benign = "// unsafe\nfn f() { let _ = \"unsafe\"; }\n";
        assert!(rules("crates/x/src/m.rs", benign, "").is_empty());
    }

    #[test]
    fn crate_roots_must_forbid_unsafe_code() {
        let root = "crates/x/src/lib.rs";
        assert!(rules(root, "#![forbid(unsafe_code)]\n", "").is_empty());
        assert_eq!(
            rules(root, "#![deny(unsafe_code)]\n", ""),
            ["forbid-header"]
        );
        assert_eq!(rules("src/lib.rs", "pub mod a;\n", ""), ["forbid-header"]);
        // Only crate roots need the header.
        assert!(rules("crates/x/src/m.rs", "pub fn f() {}\n", "").is_empty());
    }

    #[test]
    fn unwrap_is_flagged_in_library_code_only() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(rules("crates/x/src/m.rs", src, ""), ["unwrap-in-lib"]);
        assert!(rules("crates/x/src/bin/tool.rs", src, "").is_empty());
        assert!(rules("tests/t.rs", src, "").is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(rules("crates/x/src/m.rs", gated, "").is_empty());
    }

    #[test]
    fn expect_needs_an_allowlist_license() {
        let src = "fn f() { x.expect(\"proof\"); }\n";
        assert_eq!(rules("crates/x/src/m.rs", src, ""), ["expect-in-lib"]);
        let allow = "expect-in-lib crates/x/src/m.rs expect(\"proof\")";
        assert!(rules("crates/x/src/m.rs", src, allow).is_empty());
        // A license for another file does not apply.
        assert_eq!(rules("crates/y/src/m.rs", src, allow), ["expect-in-lib"]);
    }

    #[test]
    fn relaxed_ordering_is_flagged_in_every_file() {
        let src = "fn f() { A.load(Ordering::Relaxed); }\n";
        assert_eq!(rules("crates/x/src/m.rs", src, ""), ["relaxed-ordering"]);
        assert_eq!(rules("tests/t.rs", src, ""), ["relaxed-ordering"]);
    }

    #[test]
    fn float_eq_needs_an_allowlist_license() {
        let src = "fn f() { if x == 0.0 {} }\n";
        assert_eq!(rules("crates/x/src/m.rs", src, ""), ["float-eq"]);
        let allow = "float-eq crates/x/src/m.rs *";
        assert!(rules("crates/x/src/m.rs", src, allow).is_empty());
    }

    #[test]
    fn stale_allowlist_entries_are_violations() {
        let allows = parse_allowlist(
            "# comment\n\nfloat-eq crates/x/src/m.rs *\nexpect-in-lib crates/gone.rs expect(\"x\")\n",
        );
        let mut used = vec![false; allows.len()];
        scan_file(
            "crates/x/src/m.rs",
            "fn f() { if x == 0.0 {} }\n",
            &allows,
            &mut used,
        );
        let stale = stale_allows(&allows, &used);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "stale-allow");
        assert_eq!(stale[0].line, 4);
        assert!(stale[0].text.contains("crates/gone.rs"));
    }

    #[test]
    fn the_repo_itself_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let v = scan_repo(&root.canonicalize().expect("repo root resolves")).expect("scan runs");
        assert!(
            v.is_empty(),
            "policy violations:\n{}",
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
