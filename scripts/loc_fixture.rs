// The fixture `scripts/loc.sh` is checked on (CI tier 0): nine lines of
// code outside its two test modules, whose literals and comments hold
// braces that do not balance. A counter that counts those braces ends the
// first module early or never ends the second. Not compiled.

pub fn before() -> &'static str {
    "{"
}

#[cfg(test)]
mod closes_early {
    // A comment's brace: }
    const JSON: &str = "{\"a\":{}}}";
    const RAW: &str = r#"}"}"#;
    const CLOSE: char = '}';
    const ESCAPED: char = '\u{7d}';
    const SPLIT: &str = "a string over two lines }
        still the string }";
    fn helper<'a>(s: &'a str) -> &'a str {
        s
    }
}

pub fn between(x: u32) -> u32 {
    x + 1
}

#[cfg(test)]
mod never_ends {
    const OPEN: &str = "{{";
    const BYTES: &[u8] = br"{";
    const OPEN_CHAR: char = '{';
}

pub struct After {
    pub field: u32,
}
