//! The one `Name(key=value,…)` spec grammar and by-name registry behind the
//! estimator (`fg_core::estimators::registry`), propagator
//! (`fg_propagation::registry`) and graph-builder (`fg_datasets::construct`)
//! registries.
//!
//! A spec is a name or alias (trimmed, case-insensitive), optionally followed by
//! a parenthesized `key=value` list: `DCEr(r=10,l=5,lambda=0.1)`. Each options
//! type declares its whole key vocabulary once, as a [`Key`] table of spellings
//! and value checks ([`SpecOptions::KEYS`]). Spec keys apply as
//! [`SpecOptions::set`] calls on a copy of the caller's defaults, so a spec key
//! wins over the same field's default and every other field keeps its default.
//! Every `f64` key rejects non-finite values, and a key given twice in one spec
//! (counting aliases) is an error.

use std::str::FromStr;

/// One key of an options type: its lowercase spellings, the first of which error
/// messages list, and how a value is checked and stored.
pub struct Key<O>(
    pub &'static [&'static str],
    pub fn(&mut O, &Value) -> Result<(), String>,
);

/// The value of one `key=value` pair, carrying the names its errors report.
pub struct Value<'a> {
    kind: &'static str,
    key: &'a str,
    /// The trimmed value text.
    pub text: &'a str,
}

impl Value<'_> {
    /// Map the text through `f`; `None` is an "invalid `what`" error.
    pub fn with<T>(&self, what: &str, f: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
        f(self.text).ok_or_else(|| {
            let (kind, key, text) = (self.kind, self.key, self.text);
            format!("{kind} parameter '{key}' has invalid {what} '{text}'")
        })
    }

    /// Parse the text with [`FromStr`]; `what` names the expected value.
    pub fn parse<T: FromStr>(&self, what: &str) -> Result<T, String> {
        self.with(what, |s| s.parse().ok())
    }

    /// The value of the case-insensitive spelling the text matches in `table`.
    pub fn one_of<T: Copy>(&self, what: &str, table: &[(&str, T)]) -> Result<T, String> {
        self.with(what, |s| {
            let s = s.to_ascii_lowercase();
            table.iter().find(|(name, _)| *name == s).map(|&(_, v)| v)
        })
    }

    /// A finite number: NaN and infinities are rejected with the key's name.
    pub fn finite(&self) -> Result<f64, String> {
        let v: f64 = self.parse("number")?;
        if v.is_finite() {
            return Ok(v);
        }
        let (kind, key, text) = (self.kind, self.key, self.text);
        Err(format!(
            "{kind} parameter '{key}' must be a finite number, got '{text}'"
        ))
    }
}

/// Options a registry builds from: a message noun and the key table.
pub trait SpecOptions: Clone + 'static {
    /// Noun used in parameter messages (`"estimator"`, `"propagator"`, …).
    const KIND: &'static str;
    /// The whole key vocabulary and its value checks.
    const KEYS: &'static [Key<Self>];

    /// Apply one `key=value` pair; the key is trimmed and case-insensitive.
    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        set_key(self, key, value).map(|_| ())
    }
}

/// Apply one pair and return the index of the key-table entry it set.
fn set_key<O: SpecOptions>(opts: &mut O, key: &str, text: &str) -> Result<usize, String> {
    let key = &key.trim().to_ascii_lowercase();
    let Some(index) = O::KEYS.iter().position(|k| k.0.contains(&key.as_str())) else {
        let names: Vec<&str> = O::KEYS.iter().map(|k| k.0[0]).collect();
        let (last, init) = names.split_last().expect("key tables are non-empty");
        let (kind, init) = (O::KIND, init.join(", "));
        return Err(format!(
            "unknown {kind} parameter '{key}' (expected {init}, or {last})"
        ));
    };
    let kind = O::KIND;
    let text = text.trim();
    (O::KEYS[index].1)(opts, &Value { kind, key, text })?;
    Ok(index)
}

/// Split `Name(key=value,…)` into its name and `defaults` with the spec's keys
/// applied.
pub fn parse<'s, O: SpecOptions>(spec: &'s str, defaults: &O) -> Result<(&'s str, O), String> {
    let (spec, kind) = (spec.trim(), O::KIND);
    let (name, args) = match spec.split_once('(') {
        None => (spec, ""),
        Some((name, rest)) => (
            name,
            rest.strip_suffix(')').ok_or_else(|| {
                format!("{kind} spec '{spec}' has an unterminated parameter list")
            })?,
        ),
    };
    let mut opts = defaults.clone();
    let mut seen = Vec::new();
    for pair in args.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("{kind} parameter '{pair}' is not of the form key=value"))?;
        let index = set_key(&mut opts, key, value)?;
        if seen.contains(&index) {
            let key = key.trim();
            return Err(format!(
                "{kind} parameter '{key}' is given twice in '{spec}'"
            ));
        }
        seen.push(index);
    }
    Ok((name, opts))
}

/// A registry entry: canonical name, accepted aliases, a one-line description,
/// and a constructor honoring the options.
pub struct Entry<O: 'static, B: ?Sized + 'static> {
    /// Canonical lowercase name.
    pub name: &'static str,
    /// Alternative names accepted wherever the name is.
    pub aliases: &'static [&'static str],
    /// One-line human-readable description for help output.
    pub description: &'static str,
    /// Build the object with the given options.
    pub build: fn(&O) -> Box<B>,
}

impl<O, B: ?Sized> Entry<O, B> {
    /// The entry's `--list-methods` line: name, description and aliases.
    pub fn listing(&self) -> String {
        let aliases = if self.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", self.aliases.join(", "))
        };
        format!("  {:<8} {}{aliases}", self.name, self.description)
    }
}

/// A by-name table of [`Entry`]s.
pub struct Registry<O: 'static, B: ?Sized + 'static> {
    /// Noun of the unknown-name error: "unknown `kind` method".
    pub kind: &'static str,
    /// Entries, in registration order.
    pub entries: &'static [Entry<O, B>],
}

impl<O: SpecOptions + Default, B: ?Sized> Registry<O, B> {
    /// Canonical names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    fn entry(&self, name: &str) -> Option<&'static Entry<O, B>> {
        let lowered = name.trim().to_ascii_lowercase();
        self.entries
            .iter()
            .find(|e| e.name == lowered || e.aliases.contains(&lowered.as_str()))
    }

    /// Resolve a trimmed, case-insensitive name or alias (without a parameter
    /// list) to its canonical name.
    pub fn canonical(&self, name: &str) -> Option<&'static str> {
        self.entry(name).map(|e| e.name)
    }

    /// Build from a name or parameterized spec; spec keys override `defaults`.
    pub fn build(&self, spec: &str, defaults: &O) -> Result<Box<B>, String> {
        let (name, opts) = parse(spec, defaults)?;
        let entry = self.entry(name).ok_or_else(|| {
            let (kind, names) = (self.kind, self.names().join(", "));
            format!("unknown {kind} method '{name}' (expected one of {names})")
        })?;
        Ok((entry.build)(&opts))
    }

    /// Build every entry with default options, in registration order.
    pub fn build_all(&self) -> Vec<Box<B>> {
        let opts = O::default();
        self.entries.iter().map(|e| (e.build)(&opts)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Default, PartialEq)]
    struct Toy {
        count: Option<usize>,
        weight: Option<f64>,
    }

    impl SpecOptions for Toy {
        const KIND: &'static str = "toy";
        const KEYS: &'static [Key<Self>] = &[
            Key(&["n", "count"], |o, v| {
                v.parse("count").map(|n| o.count = Some(n))
            }),
            Key(&["w"], |o, v| v.finite().map(|w| o.weight = Some(w))),
        ];
    }

    #[test]
    fn specs_split_into_name_and_keys_over_defaults() {
        let defaults = Toy {
            count: Some(1),
            weight: Some(0.5),
        };
        let (name, opts) = parse(" Toy ( N = 3 , ) ", &defaults).unwrap();
        assert_eq!(name, "Toy ");
        assert_eq!(
            opts,
            Toy {
                count: Some(3),
                weight: Some(0.5)
            }
        );
        let (name, opts) = parse("toy", &defaults).unwrap();
        assert_eq!((name, opts), ("toy", defaults.clone()));
        let mut set = defaults.clone();
        set.set("COUNT", "3").unwrap();
        assert_eq!(set, parse("toy(n=3)", &defaults).unwrap().1);
    }

    #[test]
    fn malformed_specs_name_the_problem() {
        let err = |spec: &str| parse(spec, &Toy::default()).unwrap_err();
        assert!(err("toy(n=1").contains("toy spec 'toy(n=1' has an unterminated"));
        assert!(err("toy(n)").contains("'n' is not of the form key=value"));
        assert_eq!(
            err("toy(z=1)"),
            "unknown toy parameter 'z' (expected n, or w)"
        );
        assert_eq!(err("toy(n=x)"), "toy parameter 'n' has invalid count 'x'");
        assert_eq!(
            err("toy(w=inf)"),
            "toy parameter 'w' must be a finite number, got 'inf'"
        );
        assert!(err("toy(n=1,count=2)").contains("'count' is given twice"));
    }
}
