//! Derive macros for the in-repo serde shim.
//!
//! The build environment has no crates.io access (so no syn/quote); input
//! is parsed by walking raw [`proc_macro::TokenTree`]s. Supported shapes
//! are exactly what this workspace derives on: non-generic structs (unit /
//! named / tuple) and enums whose variants are unit, newtype, tuple, or
//! struct-like. `#[serde(...)]` attributes are not supported and the
//! workspace uses none. Generated impls target the shim's Value model:
//! `Serialize::to_value` with externally tagged enums, matching
//! serde_json's default representation. There is no deserialising
//! derive: the workspace only writes JSON.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("serde shim: generated Serialize impl must parse")
}

struct Item {
    name: String,
    kind: Kind,
}

enum Kind {
    UnitStruct,
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Newtype,
    Tuple(usize),
    Struct(Vec<String>),
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);
    let kw = ident_text(&toks[i]).expect("serde shim derive: expected struct/enum keyword");
    i += 1;
    let name = ident_text(&toks[i]).expect("serde shim derive: expected type name");
    i += 1;
    if matches!(&toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic types are not supported (type {name})");
    }
    let kind = match kw.as_str() {
        "struct" => match toks.get(i) {
            None => Kind::UnitStruct,
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::UnitStruct,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(count_tuple_fields(g.stream()))
            }
            other => panic!("serde shim derive: unexpected token after struct name: {other:?}"),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: expected enum body, got {other:?}"),
        },
        other => panic!("serde shim derive: unions are not supported (found `{other}`)"),
    };
    Item { name, kind }
}

fn ident_text(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(id) => Some(id.to_string()),
        _ => None,
    }
}

/// Advances past `#[...]` attributes (incl. doc comments) and `pub` /
/// `pub(...)` visibility.
fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` plus the bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1;
                    }
                }
            }
            _ => break,
        }
    }
}

/// Splits a field/variant token run at top-level commas. Commas nested in
/// `<...>` generic arguments don't split (groups are single trees already).
fn split_top_level_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = Vec::new();
    let mut cur: Vec<TokenTree> = Vec::new();
    let mut angle_depth = 0i32;
    for t in stream {
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(t);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    split_top_level_commas(stream)
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .map(|seg| {
            let mut i = 0;
            skip_attrs_and_vis(&seg, &mut i);
            ident_text(&seg[i]).expect("serde shim derive: expected field name")
        })
        .collect()
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level_commas(stream).into_iter().filter(|seg| !seg.is_empty()).count()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level_commas(stream)
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .map(|seg| {
            let mut i = 0;
            skip_attrs_and_vis(&seg, &mut i);
            let name = ident_text(&seg[i]).expect("serde shim derive: expected variant name");
            i += 1;
            let kind = match seg.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    match count_tuple_fields(g.stream()) {
                        1 => VariantKind::Newtype,
                        n => VariantKind::Tuple(n),
                    }
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    VariantKind::Struct(parse_named_fields(g.stream()))
                }
                _ => VariantKind::Unit, // `= disc` only occurs on unit variants
            };
            Variant { name, kind }
        })
        .collect()
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::UnitStruct => "::serde::Value::Null".to_string(),
        Kind::NamedStruct(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
        Kind::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let elems: Vec<String> =
                (0..*n).map(|i| format!("::serde::Serialize::to_value(&self.{i})")).collect();
            format!("::serde::Value::Array(::std::vec![{}])", elems.join(", "))
        }
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vn} => \
                             ::serde::Value::Str(::std::string::String::from(\"{vn}\")),"
                        ),
                        VariantKind::Newtype => format!(
                            "{name}::{vn}(__x0) => ::serde::Value::Object(::std::vec![\
                             (::std::string::String::from(\"{vn}\"), \
                             ::serde::Serialize::to_value(__x0))]),"
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__x{i}")).collect();
                            let elems: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_value(__x{i})"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Value::Object(::std::vec![\
                                 (::std::string::String::from(\"{vn}\"), \
                                 ::serde::Value::Array(::std::vec![{}]))]),",
                                binds.join(", "),
                                elems.join(", ")
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let binds = fields.join(", ");
                            let pairs: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(::std::string::String::from(\"{f}\"), \
                                         ::serde::Serialize::to_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => \
                                 ::serde::Value::Object(::std::vec![\
                                 (::std::string::String::from(\"{vn}\"), \
                                 ::serde::Value::Object(::std::vec![{}]))]),",
                                pairs.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}
