//! The item model: a workspace-wide inventory of functions, struct/enum
//! fields, and the concurrency primitives among them.
//!
//! Built from the [`crate::lexer`] output with a brace-depth tracker — no
//! `syn`, no type inference. The model is deliberately *syntactic*: field
//! types are the literal source text, function bodies are flat code text
//! tagged with line numbers, and resolution (which lock does `self.db
//! .active.lock()` acquire?) happens in the analysis passes on top of the
//! field inventory. The passes document where this approximation can
//! miss.

use crate::lexer::{scan_lines, FileScan};

/// What a field's declared type makes it, for the concurrency passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FieldKind {
    /// `Mutex<..>` (std, parking_lot, or `TrackedMutex`).
    Mutex,
    /// `RwLock<..>`.
    RwLock,
    /// `Condvar`.
    Condvar,
    /// `AtomicUsize`/`AtomicU64`/`AtomicBool`/... (possibly `Arc`-wrapped).
    Atomic,
    /// A channel endpoint: `Sender<..>`, `SyncSender<..>`, `Receiver<..>`.
    Channel,
    /// Anything else.
    Plain,
}

impl FieldKind {
    /// Classifies a declared type's source text.
    #[must_use]
    pub fn of_type(ty: &str) -> FieldKind {
        // Order matters: a `Mutex<AtomicU64>` (hypothetical) is a mutex.
        if contains_type(ty, "Mutex") || contains_type(ty, "TrackedMutex") {
            FieldKind::Mutex
        } else if contains_type(ty, "RwLock") {
            FieldKind::RwLock
        } else if contains_type(ty, "Condvar") {
            FieldKind::Condvar
        } else if ty_has_atomic(ty) {
            FieldKind::Atomic
        } else if contains_type(ty, "Sender")
            || contains_type(ty, "Receiver")
            || contains_type(ty, "SyncSender")
        {
            FieldKind::Channel
        } else {
            FieldKind::Plain
        }
    }

    /// Lowercase label used in the shared-state manifest.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FieldKind::Mutex => "mutex",
            FieldKind::RwLock => "rwlock",
            FieldKind::Condvar => "condvar",
            FieldKind::Atomic => "atomic",
            FieldKind::Channel => "channel",
            FieldKind::Plain => "plain",
        }
    }
}

/// True if `ty` contains `name` as a whole path segment (so `Sender`
/// does not match `WatermarkSender`'s suffix, and `TrackedMutex`
/// does not double-count as `Mutex`).
fn contains_type(ty: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = ty[from..].find(name) {
        let abs = from + pos;
        let before_ok = abs == 0
            || ty[..abs]
                .chars()
                .next_back()
                .map(|c| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(true);
        let after = ty[abs + name.len()..].chars().next();
        let after_ok = !matches!(after, Some(c) if c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = abs + name.len();
    }
    false
}

/// True if the type mentions a `std::sync::atomic` cell type.
fn ty_has_atomic(ty: &str) -> bool {
    for prim in [
        "AtomicBool",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
        "AtomicI8",
        "AtomicI16",
        "AtomicI32",
        "AtomicI64",
        "AtomicIsize",
        "AtomicPtr",
    ] {
        if contains_type(ty, prim) {
            return true;
        }
    }
    false
}

/// One declared field of a struct, enum variant, or module-level static.
#[derive(Debug, Clone)]
pub struct Field {
    /// Declaring type (struct or enum name; `"static"` for statics).
    pub owner: String,
    /// Field (or static) name.
    pub name: String,
    /// Declared type, verbatim source text.
    pub ty: String,
    /// Concurrency classification of the type.
    pub kind: FieldKind,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
}

impl Field {
    /// The stable identity used across passes, the manifest, and the
    /// runtime witness: `Owner.field`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}.{}", self.owner, self.name)
    }
}

/// One function item with its (lexed) body text.
#[derive(Debug, Clone)]
pub struct Function {
    /// `impl`/`trait` owner type, if any.
    pub owner: Option<String>,
    /// Bare function name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body code, one entry per source line: (1-based line, code text).
    pub body: Vec<(usize, String)>,
}

impl Function {
    /// `Owner::name` or bare `name` for free functions.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One lexed file plus its workspace-relative path.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Lexer output (truncated at the trailing test module).
    pub scan: FileScan,
}

/// The workspace model the analysis passes run on.
#[derive(Debug, Default)]
pub struct Model {
    /// Every lexed file.
    pub files: Vec<SourceFile>,
    /// Every declared field (and lock/atomic static) across the workspace.
    pub fields: Vec<Field>,
    /// Every function item across the workspace.
    pub functions: Vec<Function>,
}

impl Model {
    /// Builds the model from `(rel_path, content)` pairs.
    #[must_use]
    pub fn build(sources: &[(String, String)]) -> Model {
        let mut model = Model::default();
        for (rel, content) in sources {
            let scan = scan_lines(content);
            parse_file(rel, &scan, &mut model);
            model.files.push(SourceFile {
                rel: rel.clone(),
                scan,
            });
        }
        model
    }

    /// The scan for a file, by workspace-relative path.
    #[must_use]
    pub fn scan_of(&self, rel: &str) -> Option<&FileScan> {
        self.files.iter().find(|f| f.rel == rel).map(|f| &f.scan)
    }
}

/// Item context the brace tracker maintains.
#[derive(Debug)]
enum Ctx {
    Struct(String),
    Enum(String),
    Impl(String),
    Trait(String),
    Fn(usize), // index into model.functions
    Other,
}

/// What a block-opening head line declares.
fn classify_head(head: &str) -> Option<Ctx> {
    let tokens: Vec<&str> = head
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .collect();
    // The *first* item keyword wins: `impl` can appear later in a `fn`
    // head as `impl Trait` in argument or return position, and
    // attributes before a declaration never contain these bare keywords
    // as whole tokens.
    for (i, tok) in tokens.iter().enumerate() {
        match *tok {
            "fn" => {
                // Index is resolved by the caller once the Function is
                // pushed; usize::MAX is a sentinel that never escapes.
                tokens.get(i + 1)?;
                return Some(Ctx::Fn(usize::MAX));
            }
            "struct" | "union" => {
                return tokens.get(i + 1).map(|n| Ctx::Struct((*n).to_string()));
            }
            "enum" => {
                return tokens.get(i + 1).map(|n| Ctx::Enum((*n).to_string()));
            }
            "trait" => {
                return tokens.get(i + 1).map(|n| Ctx::Trait((*n).to_string()));
            }
            "impl" => {
                return Some(Ctx::Impl(impl_target(head)));
            }
            _ => {}
        }
    }
    None
}

/// The self-type of an `impl` head: the path after `for` when present
/// (trait impls), else the first type after `impl`, generics stripped.
fn impl_target(head: &str) -> String {
    // Work on the text after the (last) `impl` token.
    let after = match find_token(head, "impl") {
        Some(pos) => &head[pos + 4..],
        None => head,
    };
    // Strip a leading generics list `<...>`.
    let after = strip_leading_generics(after);
    // Trait impl: the target is after ` for `.
    let target_src = match find_token(after, "for") {
        Some(pos) => &after[pos + 3..],
        None => after,
    };
    first_path_segment_tail(target_src)
}

/// Byte offset of `tok` in `s` as a standalone word, if any.
fn find_token(s: &str, tok: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = s[from..].find(tok) {
        let abs = from + pos;
        let before_ok = abs == 0
            || s[..abs]
                .chars()
                .next_back()
                .map(|c| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(true);
        let after = s[abs + tok.len()..].chars().next();
        let after_ok = !matches!(after, Some(c) if c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(abs);
        }
        from = abs + tok.len();
    }
    None
}

/// Drops a balanced leading `<...>` group (plus surrounding whitespace).
fn strip_leading_generics(s: &str) -> &str {
    let t = s.trim_start();
    if !t.starts_with('<') {
        return t;
    }
    let mut depth = 0i32;
    for (i, c) in t.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return &t[i + 1..];
                }
            }
            _ => {}
        }
    }
    t
}

/// The last path segment of the first type in `s` (generics and `where`
/// clauses dropped): `crate::foo::Bar<T> where ...` → `Bar`.
fn first_path_segment_tail(s: &str) -> String {
    let mut name = String::new();
    let mut last = String::new();
    for c in s.trim_start().chars() {
        if c.is_alphanumeric() || c == '_' {
            last.push(c);
        } else if c == ':' {
            if !last.is_empty() {
                name.clear();
                last.clear();
            }
        } else {
            // Generics, whitespace, bodies, or any other punctuation all
            // terminate the path.
            break;
        }
        if !last.is_empty() {
            name = last.clone();
        }
    }
    name
}

/// One open block on the context stack.
struct Frame {
    ctx: Ctx,
    /// Brace depth right after this block opened.
    open_depth: u32,
    /// When this block is a field-declaring body (struct, enum, or a
    /// named-field variant's inline block), the owner type — and a
    /// buffer accumulating the current field declaration's text.
    field_owner: Option<String>,
    field_buf: String,
    field_line: usize,
}

impl Frame {
    /// Flushes the accumulated field-declaration text, if it parses as
    /// one and its generics/parens are balanced (an unbalanced buffer
    /// means the `,` was inside `FxHashMap<K, V>` or a tuple).
    fn flush_field(&mut self, rel: &str, model: &mut Model) -> bool {
        let balanced = {
            let mut angle = 0i32;
            let mut paren = 0i32;
            for c in self.field_buf.chars() {
                match c {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    '(' => paren += 1,
                    ')' => paren -= 1,
                    _ => {}
                }
            }
            angle == 0 && paren == 0
        };
        if !balanced {
            return false;
        }
        if let Some(owner) = &self.field_owner {
            if let Some((name, ty)) = parse_field_decl(&self.field_buf) {
                model.fields.push(Field {
                    owner: owner.clone(),
                    kind: FieldKind::of_type(&ty),
                    name,
                    ty,
                    file: rel.to_string(),
                    line: self.field_line,
                });
            }
        }
        self.field_buf.clear();
        true
    }
}

/// Parses one lexed file's items into the model.
fn parse_file(rel: &str, scan: &FileScan, model: &mut Model) {
    let mut stack: Vec<Frame> = Vec::new();
    let mut depth: u32 = 0;
    let mut head = String::new();
    let mut head_line = 1usize;

    for (idx, line) in scan.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = &line.code;
        // Module-level statics holding locks/atomics are shared state too.
        if stack.is_empty() || matches!(stack.last(), Some(f) if matches!(f.ctx, Ctx::Other)) {
            let t = code.trim();
            let decl = t.strip_prefix("pub ").unwrap_or(t).trim_start_matches(' ');
            if let Some(rest) = decl.strip_prefix("static ") {
                if let Some((name, ty)) = rest.split_once(':') {
                    let ty = ty.trim().trim_end_matches([';', '=', ' ']);
                    let ty = ty.split('=').next().unwrap_or(ty).trim();
                    let kind = FieldKind::of_type(ty);
                    if kind != FieldKind::Plain {
                        model.fields.push(Field {
                            owner: "static".to_string(),
                            name: name.trim().trim_start_matches("mut ").to_string(),
                            ty: ty.to_string(),
                            kind,
                            file: rel.to_string(),
                            line: lineno,
                        });
                    }
                }
            }
        }
        // Char-level brace tracking for item boundaries, field
        // declarations, and body capture.
        for c in code.chars() {
            // Accumulate field-declaration text in the innermost frame
            // when it is a field-declaring body (structural chars are
            // handled below).
            if !matches!(c, '{' | '}') {
                if let Some(top) = stack.last_mut() {
                    if top.field_owner.is_some() {
                        if c == ',' {
                            // Only a field separator when generics and
                            // parens are balanced.
                            if !top.flush_field(rel, model) {
                                top.field_buf.push(c);
                            }
                        } else {
                            if top.field_buf.trim().is_empty() && !c.is_whitespace() {
                                top.field_line = lineno;
                            }
                            top.field_buf.push(c);
                        }
                    }
                }
            }
            match c {
                '{' => {
                    let ctx = match classify_head(&head) {
                        Some(Ctx::Fn(_)) => {
                            let name = fn_name(&head).unwrap_or_default();
                            let owner = stack.iter().rev().find_map(|f| match &f.ctx {
                                Ctx::Impl(t) | Ctx::Trait(t) => Some(t.clone()),
                                _ => None,
                            });
                            model.functions.push(Function {
                                owner,
                                name,
                                file: rel.to_string(),
                                line: head_line,
                                body: Vec::new(),
                            });
                            Ctx::Fn(model.functions.len() - 1)
                        }
                        Some(ctx) => ctx,
                        None => Ctx::Other,
                    };
                    // A named-field enum variant opens a plain block
                    // directly under its enum; treat it as the enum's
                    // field body. Drop the variant-name text the parent
                    // frame buffered on the way here.
                    let owner = match &ctx {
                        Ctx::Struct(n) | Ctx::Enum(n) => Some(n.clone()),
                        Ctx::Other => stack.last().and_then(|f| match &f.ctx {
                            Ctx::Enum(n) => Some(n.clone()),
                            _ => None,
                        }),
                        _ => None,
                    };
                    if let Some(top) = stack.last_mut() {
                        top.field_buf.clear();
                    }
                    depth += 1;
                    stack.push(Frame {
                        ctx,
                        open_depth: depth,
                        field_owner: owner,
                        field_buf: String::new(),
                        field_line: lineno,
                    });
                    head.clear();
                    head_line = lineno;
                }
                '}' => {
                    if let Some(top) = stack.last_mut() {
                        if top.open_depth == depth {
                            top.flush_field(rel, model);
                            stack.pop();
                        }
                    }
                    depth = depth.saturating_sub(1);
                    head.clear();
                    head_line = lineno;
                }
                ';' => {
                    head.clear();
                    head_line = lineno;
                }
                other => {
                    if head.trim().is_empty() && !other.is_whitespace() {
                        head_line = lineno;
                    }
                    head.push(other);
                }
            }
            // Capture body text for the innermost enclosing function.
            if let Some(fi) = stack.iter().rev().find_map(|f| match f.ctx {
                Ctx::Fn(i) => Some(i),
                _ => None,
            }) {
                let body = &mut model.functions[fi].body;
                match body.last_mut() {
                    Some((l, text)) if *l == lineno => text.push(c),
                    _ => body.push((lineno, c.to_string())),
                }
            }
        }
        // Preserve line boundaries inside bodies even for the tracker.
        if let Some(fi) = stack.iter().rev().find_map(|f| match f.ctx {
            Ctx::Fn(i) => Some(i),
            _ => None,
        }) {
            let body = &mut model.functions[fi].body;
            if !matches!(body.last(), Some((l, _)) if *l == lineno) {
                body.push((lineno, String::new()));
            }
        }
    }
}

/// `name: Type` (with optional attributes and visibility) →
/// `(name, Type)`.
fn parse_field_decl(code: &str) -> Option<(String, String)> {
    let mut t = code.trim();
    // Strip leading field attributes: `#[serde(default)] pub a: u32`.
    while let Some(rest) = t.strip_prefix("#[") {
        let mut depth = 1i32;
        let mut cut = None;
        for (i, c) in rest.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = Some(i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        t = rest[cut?..].trim_start();
    }
    let t = t
        .strip_prefix("pub")
        .map(|r| {
            // `pub`, `pub(crate)`, `pub(super)`, ...
            let r = r.trim_start();
            if let Some(stripped) = r.strip_prefix('(') {
                stripped
                    .split_once(')')
                    .map(|(_, rest)| rest.trim_start())
                    .unwrap_or(r)
            } else {
                r
            }
        })
        .unwrap_or(t);
    let (name, ty) = t.split_once(':')?;
    let name = name.trim();
    // A real field name is one bare identifier (rejects `match x`,
    // `let y: T`, paths, etc.).
    if name.is_empty()
        || !name.chars().all(|c| c.is_alphanumeric() || c == '_')
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
    {
        return None;
    }
    // `::` means this was a path expression, not a field declaration.
    if ty.starts_with(':') {
        return None;
    }
    let ty = ty.trim().trim_end_matches(',').trim();
    if ty.is_empty() {
        return None;
    }
    Some((name.to_string(), ty.to_string()))
}

/// The identifier after the `fn` token of a head.
fn fn_name(head: &str) -> Option<String> {
    let pos = find_token(head, "fn")?;
    let after = &head[pos + 2..];
    let name: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(src: &str) -> Model {
        Model::build(&[("src/lib.rs".to_string(), src.to_string())])
    }

    #[test]
    fn fields_and_kinds_are_inventoried() {
        let m = model_of(
            "pub struct S {\n    pub a: Arc<Mutex<Vec<u32>>>,\n    b: AtomicU64,\n    tx: Sender<Msg>,\n    plain: u32,\n}\n",
        );
        let ids: Vec<(String, FieldKind)> = m.fields.iter().map(|f| (f.id(), f.kind)).collect();
        assert_eq!(
            ids,
            vec![
                ("S.a".to_string(), FieldKind::Mutex),
                ("S.b".to_string(), FieldKind::Atomic),
                ("S.tx".to_string(), FieldKind::Channel),
                ("S.plain".to_string(), FieldKind::Plain),
            ]
        );
    }

    #[test]
    fn enum_named_variant_fields_attribute_to_enum() {
        let m = model_of(
            "enum Trigger {\n    Always,\n    Probability { p: f64, rng: Mutex<SmallRng> },\n}\n",
        );
        let locks: Vec<String> = m
            .fields
            .iter()
            .filter(|f| f.kind == FieldKind::Mutex)
            .map(Field::id)
            .collect();
        assert_eq!(locks, vec!["Trigger.rng".to_string()]);
    }

    #[test]
    fn functions_carry_impl_owner_and_bodies() {
        let m = model_of(
            "struct S;\nimpl S {\n    fn one(&self) {\n        self.two();\n    }\n}\nfn free() { let x = 1; }\n",
        );
        let names: Vec<String> = m.functions.iter().map(Function::qualified).collect();
        assert_eq!(names, vec!["S::one".to_string(), "free".to_string()]);
        let one = &m.functions[0];
        assert_eq!(one.line, 3);
        assert!(one.body.iter().any(|(_, t)| t.contains("self.two()")));
    }

    #[test]
    fn trait_impl_target_resolves_after_for() {
        let m = model_of(
            "impl<C: Clock> Clock for ChaosClock<C> {\n    fn now(&self) -> Timestamp { t() }\n}\n",
        );
        assert_eq!(m.functions[0].qualified(), "ChaosClock::now");
    }

    #[test]
    fn let_bindings_are_not_fields() {
        let m = model_of("fn f() {\n    let x: Mutex<u32> = Mutex::new(0);\n}\n");
        assert!(m.fields.is_empty());
    }

    #[test]
    fn statics_with_locks_are_inventoried() {
        let m = model_of("static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n");
        assert_eq!(m.fields.len(), 1);
        assert_eq!(m.fields[0].id(), "static.REGISTRY");
        assert_eq!(m.fields[0].kind, FieldKind::Mutex);
    }
}
