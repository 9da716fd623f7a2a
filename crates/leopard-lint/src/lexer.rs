//! The hand-rolled source lexer underneath every lint pass.
//!
//! Rust source is split, line by line, into *code text* and *comment
//! text*: string-literal contents are dropped from both, `//` comments
//! and (possibly nested) `/* */` block comments land in the comment
//! channel, and everything else stays in the code channel. The lexer
//! carries its [`State`] across lines, so multi-line strings, raw strings
//! (`r#"…"#`), and nested block comments never desync the scan.
//!
//! On top of the raw split, [`scan_lines`] resolves the repo's
//! `lint: allow(Lxxx): <reason>` escape-hatch comments (trailing on the
//! same line, or standalone applying to the next code-bearing line) and
//! the contiguous comment block above each code line (used by L003 for
//! `// relaxed:` justifications), and truncates the scan at the file's
//! trailing `#[cfg(test)]` module — by repo convention the unit-test
//! module, which is out of lint scope.

/// Lexer state carried across lines of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Plain code.
    Code,
    /// Inside a `"..."` string literal (they may span lines).
    Str,
    /// Inside a raw string literal with the given number of `#` marks.
    RawStr(u8),
    /// Inside a (possibly nested) block comment at the given depth.
    Block(u32),
}

/// Splits one source line into (code text, comment text), updating the
/// cross-line lexer state. String-literal contents are dropped from both.
pub fn split_line(line: &str, st: &mut State) -> (String, String) {
    let chars: Vec<char> = line.chars().collect();
    let mut code = String::new();
    let mut comment = String::new();
    let mut i = 0usize;
    while i < chars.len() {
        match *st {
            State::Str => {
                match chars[i] {
                    '\\' => i += 1, // skip the escaped character
                    '"' => *st = State::Code,
                    _ => {}
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if chars[i] == '"' {
                    let n = hashes as usize;
                    if chars[i + 1..].iter().take(n).filter(|&&c| c == '#').count() == n {
                        *st = State::Code;
                        i += n;
                    }
                }
                i += 1;
            }
            State::Block(depth) => {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    *st = if depth <= 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    i += 2;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    *st = State::Block(depth + 1);
                    i += 2;
                } else {
                    comment.push(chars[i]);
                    i += 1;
                }
            }
            State::Code => {
                let c = chars[i];
                let prev_ident = i
                    .checked_sub(1)
                    .map(|p| chars[p].is_alphanumeric() || chars[p] == '_')
                    .unwrap_or(false);
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    // Line comment: the rest of the line.
                    comment.extend(&chars[i + 2..]);
                    break;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    *st = State::Block(1);
                    i += 2;
                } else if c == '"' {
                    *st = State::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw/byte string opener: r", r#", b", br#"...
                    let mut j = i + 1;
                    let mut raw = c == 'r';
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        raw = true;
                        j += 1;
                    }
                    let mut hashes = 0u8;
                    while raw && chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        *st = if raw {
                            State::RawStr(hashes)
                        } else {
                            State::Str
                        };
                        i = j + 1;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else if c == '\'' && !prev_ident {
                    // Char literal vs lifetime. `'\...'` and `'x'` are
                    // literals; `'a` followed by anything else is a lifetime.
                    if chars.get(i + 1) == Some(&'\\') {
                        i += 2; // opening quote + backslash
                        while i < chars.len() && chars[i] != '\'' {
                            i += 1;
                        }
                        i += 1; // closing quote
                    } else if chars.get(i + 2) == Some(&'\'') {
                        i += 3;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
        }
    }
    (code, comment)
}

/// Extracts the lint codes acknowledged by `lint: allow(Lxxx): <reason>`
/// directives in a comment. Directives without a non-empty reason are
/// ignored — the escape hatch requires an argument.
pub fn parse_allows(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        rest = &rest[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let code = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        let reasoned = after
            .strip_prefix(':')
            .map(|r| {
                let r = r.trim();
                !r.is_empty() && !r.starts_with("<")
            })
            .unwrap_or(false);
        if reasoned && !code.is_empty() {
            out.push(code);
        }
        rest = after;
    }
    out
}

/// Substring occurrences of `needle` in `hay` whose preceding character is
/// not part of an identifier (so `FxHashMap` does not match `HashMap`).
pub fn word_starts(hay: &str, needle: &str) -> usize {
    let mut count = 0;
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let abs = from + pos;
        let boundary = abs == 0
            || hay[..abs]
                .chars()
                .next_back()
                .map(|p| !(p.is_alphanumeric() || p == '_'))
                .unwrap_or(true);
        if boundary {
            count += 1;
        }
        from = abs + needle.len();
    }
    count
}

/// Occurrences of `.{method}(` — method calls only, so free functions or
/// identifiers that merely contain the name do not match.
pub fn method_calls(hay: &str, method: &str) -> usize {
    let pat = format!(".{method}(");
    hay.matches(&pat).count()
}

/// One source line after lexing and allow-resolution.
#[derive(Debug, Clone, Default)]
pub struct LineScan {
    /// Code text with string contents dropped.
    pub code: String,
    /// Comment text of this line.
    pub comment: String,
    /// Lint codes allowed for this line (trailing allow directives plus
    /// standalone ones from the comment block directly above).
    pub allows: Vec<String>,
    /// The contiguous comment block directly above this line (empty when
    /// a blank line or another code line intervenes).
    pub above: String,
}

impl LineScan {
    /// True if this line's allow set acknowledges `code`.
    #[must_use]
    pub fn allowed(&self, code: &str) -> bool {
        self.allows.iter().any(|a| a == code)
    }
}

/// A file after lexing: one [`LineScan`] per line *up to* (exclusive) the
/// trailing `#[cfg(test)]` module, if any.
#[derive(Debug, Clone, Default)]
pub struct FileScan {
    /// The lexed lines. `lines[i]` is source line `i + 1`.
    pub lines: Vec<LineScan>,
    /// Aliases under which `std::sync::atomic::Ordering` is in scope in
    /// this file (always contains `"Ordering"`; `use ... Ordering as O`
    /// adds `"O"`).
    pub ordering_aliases: Vec<String>,
}

/// Lexes a whole file: splits every line, resolves allow directives and
/// comment-above blocks, stops at the first `#[cfg(test)]` attribute.
#[must_use]
pub fn scan_lines(content: &str) -> FileScan {
    let mut st = State::Code;
    let mut out = FileScan {
        ordering_aliases: vec!["Ordering".to_string()],
        ..FileScan::default()
    };
    let mut pending_allows: Vec<String> = Vec::new();
    let mut comment_above = String::new();
    for raw in content.lines() {
        let (code, comment) = split_line(raw, &mut st);
        let code_trim = code.trim();
        if code_trim.starts_with("#[cfg(test)]") {
            break; // trailing unit-test module: out of lint scope
        }
        // `use std::sync::atomic::Ordering as O;` brings an alias into
        // scope that the atomics pass must recognize in `O::Relaxed`.
        if let Some(rest) = code_trim.strip_prefix("use ") {
            if let Some((path, alias)) = rest.trim_end_matches(';').rsplit_once(" as ") {
                if path.trim_end().ends_with("Ordering") {
                    out.ordering_aliases.push(alias.trim().to_string());
                }
            }
        }
        let mut allows = parse_allows(&comment);
        if code_trim.is_empty() {
            if comment.trim().is_empty() {
                // Blank line: breaks comment-block contiguity.
                pending_allows.clear();
                comment_above.clear();
            } else {
                pending_allows.append(&mut allows);
                comment_above.push_str(&comment);
                comment_above.push('\n');
            }
            out.lines.push(LineScan {
                code,
                comment,
                ..LineScan::default()
            });
            continue;
        }
        allows.append(&mut pending_allows);
        out.lines.push(LineScan {
            code,
            comment,
            allows,
            above: std::mem::take(&mut comment_above),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> String {
        let mut st = State::Code;
        src.lines()
            .map(|l| split_line(l, &mut st).0)
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn strings_comments_dropped_from_code() {
        let src = "let s = \"unwrap()\"; // says unwrap()\nlet r = r#\"HashMap\"#;\n/* Ordering::Relaxed */ x.lock();\n";
        let code = code_of(src);
        assert!(!code.contains("unwrap"));
        assert!(!code.contains("HashMap"));
        assert!(!code.contains("Relaxed"));
        assert!(code.contains("x.lock()"));
    }

    #[test]
    fn scan_lines_resolves_standalone_and_trailing_allows() {
        let scan = scan_lines(
            "// lint: allow(L001): seeded\nx.lock();\ny.lock(); // lint: allow(L102): why\n",
        );
        assert!(scan.lines[1].allowed("L001"));
        assert!(!scan.lines[1].allowed("L102"));
        assert!(scan.lines[2].allowed("L102"));
    }

    #[test]
    fn scan_lines_stops_at_test_module_and_tracks_aliases() {
        let scan = scan_lines(
            "use std::sync::atomic::Ordering as O;\nfn f() {}\n#[cfg(test)]\nmod tests {}\n",
        );
        assert_eq!(scan.lines.len(), 2);
        assert!(scan.ordering_aliases.contains(&"O".to_string()));
    }

    #[test]
    fn comment_above_is_contiguous() {
        let scan = scan_lines("// relaxed: why\nx.load();\n\n// stale\n\ny.load();\n");
        assert!(scan.lines[1].above.contains("relaxed"));
        assert!(scan.lines[5].above.is_empty());
    }
}
