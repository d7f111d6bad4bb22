//! Offline stand-in for `serde_derive`.
//!
//! Parses the deriving item directly from the token stream (no `syn`/`quote`
//! available offline) and generates `Serialize`/`Deserialize` impls against
//! the shim `serde` crate's `Value` data model. Field types never need to be
//! parsed: generated code relies on inference via
//! `serde::Deserialize::deserialize`. Supports non-generic structs (named,
//! tuple, unit) and enums (unit, newtype, tuple, struct variants) with
//! externally-tagged representation, matching real serde's default.
//! `Deserialize` is narrower, covering only the shapes the workspace reads
//! back: named-field structs and enums of unit, newtype and struct
//! variants. Any other shape is a compile-time error.

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

/// Derives `serde::Deserialize` for a non-generic struct or enum.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => deserialize_struct(name, fields),
        Item::Enum { name, variants } => deserialize_enum(name, variants),
    };
    code.parse().expect("generated Deserialize impl parses")
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
                    Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
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
        Fields::Unit => "::serde::Value::Null".to_string(),
        Fields::Named(names) => serialize_fields_named("&self.", names),
        Fields::Tuple(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
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

fn deserialize_fields_named(owner: &str, names: &[String]) -> String {
    let inits: Vec<String> = names
        .iter()
        .map(|f| {
            format!(
                "{f}: ::serde::Deserialize::deserialize(::serde::field(fields, \"{owner}\", \"{f}\")?)?,"
            )
        })
        .collect();
    inits.join("\n")
}

fn deserialize_struct(name: &str, fields: &Fields) -> String {
    let Fields::Named(names) = fields else {
        panic!("serde shim derive: Deserialize for unit or tuple struct {name} is not supported");
    };
    let inits = deserialize_fields_named(name, names);
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 let fields = ::serde::expect_object(value, \"{name}\")?;\n\
                 Ok({name} {{ {inits} }})\n\
             }}\n\
         }}"
    )
}

fn deserialize_enum(name: &str, variants: &[(String, Fields)]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|(_, f)| matches!(f, Fields::Unit))
        .map(|(v, _)| format!("\"{v}\" => Ok({name}::{v}),"))
        .collect();
    let tagged_arms: Vec<String> = variants
        .iter()
        .filter_map(|(v, fields)| match fields {
            Fields::Unit => None,
            Fields::Tuple(1) => Some(format!(
                "\"{v}\" => Ok({name}::{v}(::serde::Deserialize::deserialize(inner)?)),"
            )),
            Fields::Tuple(_) => panic!(
                "serde shim derive: Deserialize for multi-field tuple variant {name}::{v} \
                 is not supported"
            ),
            Fields::Named(field_names) => {
                let owner = format!("{name}::{v}");
                let inits = deserialize_fields_named(&owner, field_names);
                Some(format!(
                    "\"{v}\" => {{\n\
                         let fields = ::serde::expect_object(inner, \"{owner}\")?;\n\
                         Ok({name}::{v} {{ {inits} }})\n\
                     }}"
                ))
            }
        })
        .collect();
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 match value {{\n\
                     ::serde::Value::Str(tag) => match tag.as_str() {{\n\
                         {unit}\n\
                         other => Err(::serde::DeError::unknown_variant(\"{name}\", other)),\n\
                     }},\n\
                     ::serde::Value::Object(pairs) if pairs.len() == 1 => {{\n\
                         let (tag, inner) = &pairs[0];\n\
                         let _ = inner;\n\
                         match tag.as_str() {{\n\
                             {tagged}\n\
                             other => Err(::serde::DeError::unknown_variant(\"{name}\", other)),\n\
                         }}\n\
                     }}\n\
                     other => Err(::serde::DeError::invalid_type(\"enum {name}\", other)),\n\
                 }}\n\
             }}\n\
         }}",
        unit = unit_arms.join("\n"),
        tagged = tagged_arms.join("\n")
    )
}
