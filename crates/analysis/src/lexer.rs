//! A small hand-rolled Rust source scanner — no `syn`, no dependencies.
//!
//! The lint pass does not need a real parse tree; it needs to look at source
//! text *without being fooled by* comments, string/char literals and raw
//! strings.  The scanner produces, for each file:
//!
//! * a **code view**: the original text with every comment (markers
//!   included) and every literal's *contents* replaced by spaces, byte for
//!   byte, so offsets and line numbers are preserved and identifier /
//!   punctuation scans can't match inside prose;
//! * the **comment list**: each comment line's text with its 1-based line
//!   number (block comments contribute one entry per line), for the
//!   comment-driven lints (`// ORDERING:`, suppressions);
//! * **test regions**: the line ranges of `#[cfg(test)] mod … { … }` and
//!   `#[test] fn … { … }` items, found by brace-matching over the code
//!   view, so lints can exempt test code and the parity lint can require
//!   that scalar twins are *named* in one.

/// One scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Same length as the original text: comments and literal contents
    /// blanked.
    pub code: String,
    /// `(1-based line, comment text)` — one entry per comment line.
    pub comments: Vec<(usize, String)>,
    /// Byte offset of each line start in `code`.
    pub line_starts: Vec<usize>,
    /// Inclusive 1-based line ranges of test items.
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Scans `text` into a [`SourceFile`].
    pub fn scan(rel_path: impl Into<String>, text: impl AsRef<str>) -> Self {
        let text = text.as_ref();
        let (code, comments) = blank(text);
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let mut file = Self {
            rel_path: rel_path.into(),
            code,
            comments,
            line_starts,
            test_regions: Vec::new(),
        };
        file.test_regions = find_test_regions(&file);
        file
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }

    /// The code view of a 1-based line (without the trailing newline).
    pub fn code_line(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.code.len(), |&next| next.saturating_sub(1));
        &self.code[start..end.max(start)]
    }

    /// Whether a 1-based line falls inside a test region.
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| line >= start && line <= end)
    }

    /// The comment texts on exactly this 1-based line.
    pub fn comments_on(&self, line: usize) -> impl Iterator<Item = &str> + '_ {
        self.comments
            .iter()
            .filter(move |&&(l, _)| l == line)
            .map(|(_, text)| text.as_str())
    }
}

/// Scanner state for [`blank`].
enum State {
    Code,
    LineComment,
    /// Nested block comments, with current depth.
    BlockComment(usize),
    /// Inside `"…"`; the flag notes a pending escape.
    Str {
        escaped: bool,
    },
    /// Inside `r##"…"##`; the count is the number of `#`s.
    RawStr(usize),
    /// Inside `'…'`; the flag notes a pending escape.
    Char {
        escaped: bool,
    },
}

/// Produces the blanked code view and the comment list.
fn blank(text: &str) -> (String, Vec<(usize, String)>) {
    let bytes = text.as_bytes();
    let mut code: Vec<u8> = bytes.to_vec();
    let mut comments = Vec::new();
    let mut comment_start: Option<usize> = None;
    let mut line = 1usize;
    let mut state = State::Code;
    let mut i = 0usize;

    // Replaces a byte with a space unless it is a newline (multi-byte UTF-8
    // continuation bytes are blanked like any other non-newline byte).
    let blank_at = |code: &mut Vec<u8>, at: usize| {
        if code[at] != b'\n' {
            code[at] = b' ';
        }
    };
    // Flushes one comment line (from `start` to `i`, exclusive).
    let push_comment =
        |comments: &mut Vec<(usize, String)>, line: usize, start: usize, end: usize| {
            comments.push((line, text[start..end].to_string()));
        };

    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    comment_start = Some(i);
                    blank_at(&mut code, i);
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    comment_start = Some(i);
                    blank_at(&mut code, i);
                    blank_at(&mut code, i + 1);
                    i += 1;
                } else if b == b'"' {
                    state = State::Str { escaped: false };
                } else if b == b'r' || b == b'b' || b == b'c' {
                    // Possible raw/byte/C string prefix: r", br", b", c", r#".
                    // An identifier character before the prefix means this is
                    // just the tail of an identifier (e.g. `ptr`), not a
                    // literal prefix.
                    let prev_ident = i > 0 && is_ident_byte(bytes[i - 1]);
                    let mut j = i + 1;
                    if b == b'b' && bytes.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    let mut hashes = 0usize;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = b != b'c' && (hashes > 0 || bytes.get(i + 1) == Some(&b'r'))
                        || (b == b'r' && hashes == 0 && bytes.get(j) == Some(&b'"'));
                    if !prev_ident && bytes.get(j) == Some(&b'"') {
                        if is_raw || hashes > 0 {
                            state = State::RawStr(hashes);
                        } else {
                            state = State::Str { escaped: false };
                        }
                        i = j;
                    } else if !prev_ident && b == b'b' && bytes.get(i + 1) == Some(&b'\'') {
                        state = State::Char { escaped: false };
                        i += 1;
                    }
                } else if b == b'\'' {
                    // Char literal or lifetime: 'x' / '\n' are chars, 'a in
                    // `&'a T` is a lifetime (no closing quote right after).
                    let next = bytes.get(i + 1).copied();
                    let after = bytes.get(i + 2).copied();
                    if next == Some(b'\\') || after == Some(b'\'') {
                        state = State::Char { escaped: false };
                    }
                    // else: lifetime — leave as code.
                }
                if b == b'\n' {
                    line += 1;
                }
            }
            State::LineComment => {
                if b == b'\n' {
                    if let Some(start) = comment_start.take() {
                        push_comment(&mut comments, line, start, i);
                    }
                    state = State::Code;
                    line += 1;
                } else {
                    blank_at(&mut code, i);
                }
            }
            State::BlockComment(depth) => {
                if b == b'\n' {
                    if let Some(start) = comment_start.take() {
                        push_comment(&mut comments, line, start, i);
                    }
                    comment_start = Some(i + 1);
                    line += 1;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    blank_at(&mut code, i);
                    blank_at(&mut code, i + 1);
                    i += 1;
                    state = State::BlockComment(depth + 1);
                } else if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    blank_at(&mut code, i);
                    blank_at(&mut code, i + 1);
                    i += 1;
                    if depth == 1 {
                        if let Some(start) = comment_start.take() {
                            push_comment(&mut comments, line, start, i + 1);
                        }
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                } else {
                    blank_at(&mut code, i);
                }
            }
            State::Str { escaped } => {
                if b == b'\n' {
                    line += 1;
                    state = State::Str { escaped: false };
                } else if escaped {
                    blank_at(&mut code, i);
                    state = State::Str { escaped: false };
                } else if b == b'\\' {
                    blank_at(&mut code, i);
                    state = State::Str { escaped: true };
                } else if b == b'"' {
                    state = State::Code;
                } else {
                    blank_at(&mut code, i);
                }
            }
            State::RawStr(hashes) => {
                if b == b'\n' {
                    line += 1;
                } else if b == b'"' {
                    let mut matched = 0usize;
                    while matched < hashes && bytes.get(i + 1 + matched) == Some(&b'#') {
                        matched += 1;
                    }
                    if matched == hashes {
                        i += hashes;
                        state = State::Code;
                    } else {
                        blank_at(&mut code, i);
                    }
                } else {
                    blank_at(&mut code, i);
                }
            }
            State::Char { escaped } => {
                if escaped {
                    blank_at(&mut code, i);
                    state = State::Char { escaped: false };
                } else if b == b'\\' {
                    blank_at(&mut code, i);
                    state = State::Char { escaped: true };
                } else if b == b'\'' {
                    state = State::Code;
                } else {
                    if b == b'\n' {
                        line += 1;
                    }
                    blank_at(&mut code, i);
                }
            }
        }
        i += 1;
    }
    if let (State::LineComment | State::BlockComment(_), Some(start)) = (&state, comment_start) {
        push_comment(&mut comments, line, start, bytes.len());
    }
    // The blanking never touches multi-byte boundaries destructively (every
    // replaced byte becomes ASCII space), so this cannot fail on valid input.
    let code = String::from_utf8_lossy(&code).into_owned();
    (code, comments)
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds `#[cfg(test)] mod … { … }` and `#[test] fn … { … }` line ranges by
/// brace-matching over the code view.
fn find_test_regions(file: &SourceFile) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let code = &file.code;
    for (needle, keyword) in [("#[cfg(test)]", "mod"), ("#[test]", "fn")] {
        let mut from = 0usize;
        while let Some(pos) = code[from..].find(needle) {
            let attr_at = from + pos;
            from = attr_at + needle.len();
            // The keyword must follow within the next few tokens (other
            // attributes may sit in between).
            let window_end = (attr_at + 400).min(code.len());
            let window = &code[attr_at..window_end];
            let Some(kw_rel) = find_word(window, keyword) else {
                continue;
            };
            let Some(open_rel) = window[kw_rel..].find('{') else {
                continue;
            };
            let open = attr_at + kw_rel + open_rel;
            let Some(close) = match_brace(code, open) else {
                continue;
            };
            regions.push((file.line_of(attr_at), file.line_of(close)));
        }
    }
    regions
}

/// Byte offset of the first whole-word occurrence of `word` in `haystack`.
pub fn find_word(haystack: &str, word: &str) -> Option<usize> {
    let bytes = haystack.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = haystack[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

/// All whole-word occurrence offsets of `word` in `haystack`.
pub fn find_words(haystack: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = find_word(&haystack[from..], word) {
        out.push(from + rel);
        from += rel + word.len();
    }
    out
}

/// Offset of the `}` matching the `{` at `open` in a blanked code view.
pub fn match_brace(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    debug_assert_eq!(bytes[open], b'{');
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"unsafe { }\"; // unwrap in comment\nlet y = 1;\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(!f.code.contains("unsafe"));
        assert!(!f.code.contains("unwrap"));
        assert!(f.code.contains("let y = 1;"));
        assert_eq!(f.comments.len(), 1);
        assert_eq!(f.comments[0].0, 1);
        assert!(f.comments[0].1.contains("unwrap in comment"));
        // Quotes survive so call shapes like `.expect(` stay detectable.
        assert!(f.code.contains("let x = \"          \";"));
    }

    #[test]
    fn raw_strings_and_chars_are_blanked_lifetimes_are_not() {
        let src = "let r = r#\"panic!()\"#; let c = '\\n'; fn f<'a>(x: &'a u8) {}\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(!f.code.contains("panic"));
        assert!(f.code.contains("<'a>"));
        assert!(f.code.contains("&'a u8"));
    }

    #[test]
    fn block_comments_nest_and_split_per_line() {
        let src = "/* outer /* inner */ still\ncomment */ let z = 2;\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(f.code.contains("let z = 2;"));
        assert!(!f.code.contains("outer"));
        assert_eq!(f.comments.len(), 2);
        assert_eq!((f.comments[0].0, f.comments[1].0), (1, 2));
    }

    #[test]
    fn test_regions_cover_cfg_test_mods_and_test_fns() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(3));
        assert!(f.in_test_region(4));
        assert!(f.in_test_region(5));
    }

    #[test]
    fn word_search_respects_boundaries() {
        assert_eq!(find_word("let unwrapped = 1;", "unwrap"), None);
        assert!(find_word("x.unwrap()", "unwrap").is_some());
        assert_eq!(find_words("a mod b mod c", "mod").len(), 2);
    }
}
