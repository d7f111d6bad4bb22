//! Offline stand-in for `serde_derive`.
//!
//! Parses the deriving item directly from the token stream (no `syn`/`quote`
//! available offline) and generates `Serialize` impls against the shim
//! `serde` crate's `Value` data model. Field types never need to be parsed:
//! every field goes through `serde::Serialize::serialize`. Supports the
//! shapes the workspace derives: non-generic named-field and newtype
//! structs, and enums of unit, newtype, tuple and struct variants with
//! externally-tagged representation, matching real serde's default. Any
//! other shape is a compile-time error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Field shape of a struct or enum variant.
enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

/// Parsed shape of the deriving item.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// Derives `serde::Serialize` for a non-generic struct or enum.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => serialize_struct(name, fields),
        Item::Enum { name, variants } => serialize_enum(name, variants),
    };
    code.parse().expect("generated Serialize impl parses")
}

// ---- parsing -------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();
    loop {
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // Attribute or doc comment: skip the bracket group.
                toks.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                // Visibility, possibly pub(crate): skip optional paren group.
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {
                let name = expect_ident(&mut toks);
                reject_generics(&mut toks, &name);
                let fields = match toks.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        Fields::Named(parse_field_names(g.stream()))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        Fields::Tuple(count_tuple_fields(g.stream()))
                    }
                    other => {
                        panic!("serde shim derive: unexpected token after struct {name}: {other:?}")
                    }
                };
                return Item::Struct { name, fields };
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => {
                let name = expect_ident(&mut toks);
                reject_generics(&mut toks, &name);
                let body = match toks.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                    other => {
                        panic!("serde shim derive: expected enum body for {name}, got {other:?}")
                    }
                };
                return Item::Enum {
                    name,
                    variants: parse_variants(body),
                };
            }
            Some(other) => panic!("serde shim derive: unexpected token {other:?}"),
            None => panic!("serde shim derive: no struct or enum found"),
        }
    }
}

fn expect_ident(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> String {
    match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected identifier, got {other:?}"),
    }
}

fn reject_generics(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>, name: &str) {
    if let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic type {name} is not supported");
        }
    }
}

/// Extracts field names from the brace body of a struct or struct variant.
fn parse_field_names(stream: TokenStream) -> Vec<String> {
    let mut names = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        // Skip attributes / doc comments and visibility before the name.
        match toks.peek() {
            None => return names,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                toks.next();
                continue;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
                continue;
            }
            _ => {}
        }
        names.push(expect_ident(&mut toks));
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after field name, got {other:?}"),
        }
        // Skip the type: everything until a comma outside angle brackets.
        let mut angle_depth = 0i32;
        loop {
            match toks.next() {
                None => return names,
                Some(TokenTree::Punct(p)) => match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                },
                Some(_) => {}
            }
        }
    }
}

/// Counts the fields in the paren body of a tuple struct or tuple variant.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut count = 0;
    let mut saw_tokens = false;
    let mut angle_depth = 0i32;
    for tok in stream {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    count += 1;
                    saw_tokens = false;
                    continue;
                }
                _ => {}
            }
        }
        saw_tokens = true;
    }
    count + usize::from(saw_tokens)
}

/// Parses the variants of an enum body.
fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let mut variants = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        match toks.peek() {
            None => return variants,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                toks.next();
                continue;
            }
            _ => {}
        }
        let name = expect_ident(&mut toks);
        let fields = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let body = g.stream();
                toks.next();
                Fields::Named(parse_field_names(body))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let body = g.stream();
                toks.next();
                Fields::Tuple(count_tuple_fields(body))
            }
            _ => Fields::Unit,
        };
        variants.push((name, fields));
        // Skip an optional discriminant and the separating comma.
        loop {
            match toks.next() {
                None => return variants,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => break,
                Some(_) => {}
            }
        }
    }
}

// ---- code generation -----------------------------------------------------

fn serialize_fields_named(receiver: &str, names: &[String]) -> String {
    let pairs: Vec<String> = names
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from(\"{f}\"), ::serde::Serialize::serialize({receiver}{f}))"
            )
        })
        .collect();
    format!("::serde::Value::Object(vec![{}])", pairs.join(", "))
}

fn serialize_struct(name: &str, fields: &Fields) -> String {
    let body = match fields {
        Fields::Named(names) => serialize_fields_named("&self.", names),
        Fields::Tuple(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
        _ => panic!("serde shim derive: struct {name} is neither named-field nor newtype"),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn serialize_enum(name: &str, variants: &[(String, Fields)]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|(v, fields)| match fields {
            Fields::Unit => format!(
                "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),"
            ),
            Fields::Tuple(1) => format!(
                "{name}::{v}(x0) => ::serde::Value::Object(vec![(::std::string::String::from(\"{v}\"), ::serde::Serialize::serialize(x0))]),"
            ),
            Fields::Tuple(n) => {
                let binders: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                let items: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Serialize::serialize(x{i})"))
                    .collect();
                format!(
                    "{name}::{v}({}) => ::serde::Value::Object(vec![(::std::string::String::from(\"{v}\"), ::serde::Value::Array(vec![{}]))]),",
                    binders.join(", "),
                    items.join(", ")
                )
            }
            Fields::Named(field_names) => {
                let binders = field_names.join(", ");
                let inner = serialize_fields_named("", field_names);
                format!(
                    "{name}::{v} {{ {binders} }} => ::serde::Value::Object(vec![(::std::string::String::from(\"{v}\"), {inner})]),"
                )
            }
        })
        .collect();
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self) -> ::serde::Value {{\n\
                 match self {{ {} }}\n\
             }}\n\
         }}",
        arms.join("\n")
    )
}
