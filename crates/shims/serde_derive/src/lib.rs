//! Offline shim for `serde_derive`.
//!
//! Generates one `Serialize` impl that writes a value as JSON through
//! the shim serde's writer, and one `Deserialize` impl that reads it
//! back from the shim's pull reader. The registry is unreachable in
//! this build environment, so `syn`/`quote` are unavailable; the derive
//! input is parsed directly from the token stream. Supported shapes cover what
//! this workspace derives: structs with named fields, tuple/newtype
//! structs, unit structs, and enums with unit/tuple/struct variants,
//! plus the `#[serde(with = "module")]`,
//! `#[serde(skip_serializing_if = "path")]`, and `#[serde(default)]`
//! field attributes.
//!
//! Field and variant names are quoted once, here, into string literals
//! (`"name":` for keys, `"Name"` for unit variants) that the writer
//! copies without escaping: the names are Rust identifiers, which hold
//! no character JSON escapes, and an item with a name that would need
//! one is refused at compile time. Struct readers pass the same
//! literals with a guess, the index after the last field matched, so
//! the reader can match text in declaration order with one comparison
//! per key (see `Reader::next_key` in the shim serde).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Clone, Default)]
struct Field {
    name: String,
    with: Option<String>,
    /// `skip_serializing_if = "path"`: omit the field from the map
    /// when `path(&value)` is true.
    skip_if: Option<String>,
    /// `default`: on deserialize, a missing field becomes
    /// `Default::default()` instead of an error.
    default: bool,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Item {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

/// Derive `serde::Serialize` (JSON-writer shim).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derive `serde::Deserialize` (JSON-reader shim).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

fn expand(input: TokenStream, ser: bool) -> TokenStream {
    let (name, item) = match parse_item(input).and_then(check_names) {
        Ok(v) => v,
        Err(msg) => {
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
    };
    let code = if ser {
        gen_serialize(&name, &item)
    } else {
        gen_deserialize(&name, &item)
    };
    code.parse().unwrap_or_else(|e| {
        format!("compile_error!(\"serde shim derive generated invalid code: {e:?}\");")
            .parse()
            .unwrap()
    })
}

// -------------------------------------------------------------------
// Parsing
// -------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<(String, Item), String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs_and_vis(&tokens, &mut i);

    let kw = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, got {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };
    i += 1;

    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive does not support generic type `{name}`"
        ));
    }

    match kw.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Item::NamedStruct(parse_named_fields(g.stream())?)))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok((name, Item::TupleStruct(count_tuple_fields(g.stream()))))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok((name, Item::UnitStruct)),
            other => Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Item::Enum(parse_variants(g.stream())?)))
            }
            other => Err(format!("expected enum body, got {other:?}")),
        },
        other => Err(format!("expected struct or enum, got `{other}`")),
    }
}

fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if matches!(tokens.get(*i), Some(TokenTree::Group(_))) {
                    *i += 1; // [...]
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(
                    tokens.get(*i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *i += 1; // pub(crate) etc.
                }
            }
            _ => return,
        }
    }
}

/// Apply the arguments of a `#[serde(...)]` attribute group to `field`,
/// if the attribute at `tokens[i]` (pointing at `#`) is one. Recognizes
/// `with = "module"`, `skip_serializing_if = "path"`, and `default`;
/// unknown arguments are ignored.
fn apply_serde_attr(tokens: &[TokenTree], i: usize, field: &mut Field) {
    let Some(TokenTree::Group(g)) = tokens.get(i + 1) else {
        return;
    };
    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
    match inner.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return,
    }
    let Some(TokenTree::Group(args)) = inner.get(1) else {
        return;
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut j = 0;
    while j < args.len() {
        let Some(TokenTree::Ident(kw)) = args.get(j) else {
            j += 1;
            continue;
        };
        let kw = kw.to_string();
        let value = match (args.get(j + 1), args.get(j + 2)) {
            (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) if eq.as_char() == '=' => {
                j += 3;
                Some(lit.to_string().trim_matches('"').to_string())
            }
            _ => {
                j += 1;
                None
            }
        };
        match (kw.as_str(), value) {
            ("with", Some(v)) => field.with = Some(v),
            ("skip_serializing_if", Some(v)) => field.skip_if = Some(v),
            ("default", None) => field.default = true,
            _ => {}
        }
        // Skip to just past the next top-level comma.
        while j < args.len() && !matches!(&args[j], TokenTree::Punct(p) if p.as_char() == ',') {
            j += 1;
        }
        j += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Attributes (possibly `#[serde(...)]`).
        let mut field = Field::default();
        loop {
            match tokens.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    apply_serde_attr(&tokens, i, &mut field);
                    i += 2;
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    i += 1;
                    if matches!(
                        tokens.get(i),
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                    ) {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        field.name = name.to_string();
        let name = field.name.clone();
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, got {other:?}")),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        i += 1; // consume the comma (or run past the end)
        fields.push(field);
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    let mut trailing_comma = false;
    for tok in &tokens {
        trailing_comma = false;
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Skip attributes/doc comments.
        while matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        let name = name.to_string();
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`= expr`) up to the comma.
        while i < tokens.len() && !matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
            i += 1;
        }
        i += 1; // the comma
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

/// Refuse an item with a field or variant name that JSON would have to
/// escape: generated code writes and matches names as quoted literals,
/// unescaped. Rust identifiers never hold such a character.
fn check_names((name, item): (String, Item)) -> Result<(String, Item), String> {
    let fields = |fields: &[Field]| fields.iter().map(|f| f.name.clone()).collect::<Vec<_>>();
    let names = match &item {
        Item::NamedStruct(fs) => fields(fs),
        Item::Enum(variants) => variants
            .iter()
            .flat_map(|v| {
                let inner = match &v.kind {
                    VariantKind::Struct(fs) => fields(fs),
                    _ => Vec::new(),
                };
                std::iter::once(v.name.clone()).chain(inner)
            })
            .collect(),
        Item::TupleStruct(_) | Item::UnitStruct => Vec::new(),
    };
    match names
        .iter()
        .find(|n| n.chars().any(|c| c < ' ' || c == '"' || c == '\\'))
    {
        Some(bad) => Err(format!(
            "serde shim derive: name {bad:?} in `{name}` would need a JSON escape"
        )),
        None => Ok((name, item)),
    }
}

// -------------------------------------------------------------------
// Code generation
// -------------------------------------------------------------------

/// `name` as a JSON object key and its colon, `"name":`, in a Rust
/// string literal: built once here, copied or compared as is at run
/// time.
fn key_literal(name: &str) -> String {
    format!("{:?}", format!("\"{name}\":"))
}

/// `name` as a JSON string, `"name"`, in a Rust string literal.
fn str_literal(name: &str) -> String {
    format!("{:?}", format!("\"{name}\""))
}

const OK: &str = "::std::result::Result::Ok";
const SOME: &str = "::std::option::Option::Some";
const VARIANT: &str = "::serde::__private::Variant";

/// Statements writing `fields` as a JSON object to `__w`;
/// `access(name)` is an expression of type `&FieldType`.
fn write_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::from("__w.begin_object();\n");
    for f in fields {
        let value = access(&f.name);
        let write = match &f.with {
            Some(module) => format!("{module}::serialize({value}, &mut *__w)?;"),
            None => format!("::serde::Serialize::serialize({value}, &mut *__w)?;"),
        };
        let entry = format!("__w.raw_key({}); {write}", key_literal(&f.name));
        match &f.skip_if {
            Some(pred) => code.push_str(&format!("if !{pred}({value}) {{ {entry} }}\n")),
            None => {
                code.push_str(&entry);
                code.push('\n');
            }
        }
    }
    code.push_str("__w.end_object();\n");
    code
}

/// Statements writing the values `items` as a JSON array to `__w`.
fn write_items(items: &[String]) -> String {
    let mut code = String::from("__w.begin_array();\n");
    for item in items {
        code.push_str(&format!(
            "__w.element(); ::serde::Serialize::serialize({item}, &mut *__w)?;\n"
        ));
    }
    code.push_str("__w.end_array();\n");
    code
}

/// A block expression reading a JSON object from `__r` into
/// `ctor { fields }`. Unknown keys are skipped, the first of duplicate
/// keys wins, and a missing field is an error unless it is `default`.
/// Each key is first guessed to be the field declared after the last
/// one matched (see `Reader::next_key`).
fn read_fields(fields: &[Field], ctor: &str, what: &str) -> String {
    let keys: Vec<String> = fields.iter().map(|f| key_literal(&f.name)).collect();
    let mut code = format!("{{ __r.begin_object(\"map for {what}\")?;\n");
    for i in 0..fields.len() {
        code.push_str(&format!("let mut __f{i} = ::std::option::Option::None;\n"));
    }
    code.push_str(&format!(
        "let mut __guess = 0;\n\
         while let {SOME}(__k) = __r.next_key(&[{}], __guess)? {{ __guess = __k + 1; \
         match __k {{\n",
        keys.join(", ")
    ));
    for (i, f) in fields.iter().enumerate() {
        let read = match &f.with {
            Some(module) => format!("{module}::deserialize(&mut *__r)?"),
            None => "::serde::Deserialize::deserialize(&mut *__r)?".to_string(),
        };
        code.push_str(&format!(
            "{i} if __f{i}.is_none() => __f{i} = {SOME}({read}),\n"
        ));
    }
    code.push_str("_ => __r.skip_value()?,\n} }\n");
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let name = &f.name;
            if f.default {
                format!("{name}: __f{i}.unwrap_or_default()")
            } else {
                format!(
                    "{name}: match __f{i} {{ {SOME}(__v) => __v, ::std::option::Option::None => \
                     return ::std::result::Result::Err(__r.error(\"missing field `{name}`\")) }}"
                )
            }
        })
        .collect();
    code.push_str(&format!("{ctor} {{ {} }} }}", inits.join(", ")));
    code
}

/// A block expression reading an `n`-element JSON array from `__r` into
/// `ctor(..)`.
fn read_items(n: usize, ctor: &str, what: &str) -> String {
    let items: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "{{ __r.tuple_element({what:?}, {i}, {n})?; \
                 ::serde::Deserialize::deserialize(&mut *__r)? }}"
            )
        })
        .collect();
    format!(
        "{{ __r.begin_array(\"array for {what}\")?; let __v = {ctor}({}); \
         __r.end_tuple({what:?}, {n})?; __v }}",
        items.join(", ")
    )
}

fn gen_serialize(name: &str, item: &Item) -> String {
    let body = match item {
        Item::NamedStruct(fields) => write_fields(fields, |f| format!("&self.{f}")),
        Item::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, &mut *__w)?;".to_string(),
        Item::TupleStruct(n) => {
            let items: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            write_items(&items)
        }
        Item::UnitStruct => "__w.null();".to_string(),
        Item::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let key = key_literal(vn);
                let arm = match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!(
                            "{name}::{vn} => __w.raw_str({}),\n",
                            str_literal(vn)
                        ));
                        continue;
                    }
                    VariantKind::Tuple(1) => format!(
                        "{name}::{vn}(__x0) => {{ __w.begin_object(); __w.raw_key({key}); \
                         ::serde::Serialize::serialize(__x0, &mut *__w)?;"
                    ),
                    VariantKind::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("__x{i}")).collect();
                        format!(
                            "{name}::{vn}({}) => {{ __w.begin_object(); __w.raw_key({key});\n{}",
                            binders.join(", "),
                            write_items(&binders)
                        )
                    }
                    VariantKind::Struct(fields) => {
                        let binders: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        format!(
                            "{name}::{vn} {{ {} }} => {{ __w.begin_object(); __w.raw_key({key});\n{}",
                            binders.join(", "),
                            write_fields(fields, str::to_string)
                        )
                    }
                };
                arms.push_str(&arm);
                arms.push_str(" __w.end_object(); }\n");
            }
            format!("match self {{\n{arms}\n}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize<__S: ::serde::Serializer>(&self, __s: __S) -> \
                 ::std::result::Result<__S::Ok, __S::Error> {{\n\
                 __s.with_writer(|__w| {{\n{body}\n{OK}(()) }})\n\
             }}\n\
         }}"
    )
}

fn gen_deserialize(name: &str, item: &Item) -> String {
    let body = match item {
        Item::NamedStruct(fields) => {
            format!(
                "{OK}({})",
                read_fields(fields, name, &format!("struct {name}"))
            )
        }
        Item::TupleStruct(1) => {
            format!("{OK}({name}(::serde::Deserialize::deserialize(&mut *__r)?))")
        }
        Item::TupleStruct(n) => {
            format!(
                "{OK}({})",
                read_items(*n, name, &format!("tuple struct {name}"))
            )
        }
        Item::UnitStruct => format!("__r.skip_value()?; {OK}({name})"),
        Item::Enum(variants) => {
            let (mut unit, mut data) = (Vec::new(), Vec::new());
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                let what = format!("variant {name}::{vn}");
                let read = match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!(
                            "{VARIANT}::Unit({}) => {OK}({ctor}),\n",
                            unit.len()
                        ));
                        unit.push(str_literal(vn));
                        continue;
                    }
                    VariantKind::Tuple(1) => {
                        format!("{ctor}(::serde::Deserialize::deserialize(&mut *__r)?)")
                    }
                    VariantKind::Tuple(n) => read_items(*n, &ctor, &what),
                    VariantKind::Struct(fields) => read_fields(fields, &ctor, &what),
                };
                arms.push_str(&format!(
                    "{VARIANT}::Data({}) => {{ let __v = {read}; __r.end_variant({name:?})?; \
                     {OK}(__v) }},\n",
                    data.len()
                ));
                data.push(key_literal(vn));
            }
            format!(
                "match __r.variant({name:?}, &[{}], &[{}])? {{\n{arms}\
                 _ => ::std::result::Result::Err(__r.error(\"unknown variant of {name}\")),\n}}",
                unit.join(", "),
                data.join(", ")
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) -> \
                 ::std::result::Result<Self, __D::Error> {{\n\
                 __d.with_reader(|__r| {{\n{body}\n}})\n\
             }}\n\
         }}"
    )
}
