//! Argument parsing for the `cnet` tool — a small hand-rolled parser so the
//! workspace stays within its vetted dependency set.

use cnet_topology::construct::{bitonic, block, counting_tree, merger, periodic};
use cnet_topology::Network;

/// Builds the requested network family at fan `w`.
///
/// # Errors
///
/// Returns a user-facing message for unknown families or unsupported
/// widths.
pub fn parse_network(family: &str, w_str: &str) -> Result<Network, String> {
    let w: usize = w_str.parse().map_err(|_| format!("'{w_str}' is not a valid width"))?;
    let built = match family {
        "bitonic" | "b" => bitonic(w),
        "periodic" | "p" => periodic(w),
        "tree" | "t" => counting_tree(w),
        "block" | "l" => block(w),
        "merger" | "m" => merger(w),
        other => {
            return Err(format!(
                "unknown family '{other}' (expected bitonic, periodic, tree, block, or merger)"
            ))
        }
    };
    built.map_err(|e| e.to_string())
}

/// Parsed `--key value` options with typed accessors and unknown-flag
/// detection.
#[derive(Debug, Default)]
pub struct Options {
    pairs: Vec<(String, String)>,
}

impl Options {
    /// Parses `--key value` pairs from the tail of an argument list.
    ///
    /// # Errors
    ///
    /// Returns a message for stray positional arguments or a trailing flag
    /// with no value.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument '{flag}'"))?;
            let value = it.next().ok_or_else(|| format!("flag --{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Options { pairs })
    }

    /// Looks up a flag's raw value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// A `usize` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    /// An `f64` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got '{v}'")),
        }
    }

    /// A `u64` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    /// Rejects flags outside the allowed set.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown flag.
    pub fn allow(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in &self.pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("unknown flag --{k}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_network_families() {
        assert_eq!(parse_network("bitonic", "8").unwrap().depth(), 6);
        assert_eq!(parse_network("b", "8").unwrap().depth(), 6);
        assert_eq!(parse_network("periodic", "8").unwrap().depth(), 9);
        assert_eq!(parse_network("tree", "8").unwrap().fan_in(), 1);
        assert_eq!(parse_network("merger", "8").unwrap().depth(), 3);
        assert_eq!(parse_network("block", "8").unwrap().depth(), 3);
    }

    #[test]
    fn parse_network_rejects_bad_input() {
        assert!(parse_network("hexagonal", "8").unwrap_err().contains("unknown family"));
        assert!(parse_network("bitonic", "seven").unwrap_err().contains("not a valid width"));
        assert!(parse_network("bitonic", "6").is_err()); // not a power of two
    }

    #[test]
    fn options_parse_and_access() {
        let opts = Options::parse(&strings(&["--ratio", "3.5", "--seed", "7"])).unwrap();
        assert_eq!(opts.f64_or("ratio", 1.0).unwrap(), 3.5);
        assert_eq!(opts.u64_or("seed", 0).unwrap(), 7);
        assert_eq!(opts.usize_or("processes", 4).unwrap(), 4);
        assert!(opts.allow(&["ratio", "seed"]).is_ok());
        assert!(opts.allow(&["ratio"]).unwrap_err().contains("--seed"));
    }

    #[test]
    fn options_reject_malformed_input() {
        assert!(Options::parse(&strings(&["stray"])).is_err());
        assert!(Options::parse(&strings(&["--flag"])).is_err());
        let opts = Options::parse(&strings(&["--n", "x"])).unwrap();
        assert!(opts.usize_or("n", 1).is_err());
    }

    #[test]
    fn later_flags_override_earlier() {
        let opts = Options::parse(&strings(&["--n", "1", "--n", "2"])).unwrap();
        assert_eq!(opts.usize_or("n", 0).unwrap(), 2);
    }

    #[test]
    fn short_family_names_build_the_same_networks() {
        for (long, short) in
            [("bitonic", "b"), ("periodic", "p"), ("tree", "t"), ("block", "l"), ("merger", "m")]
        {
            let a = parse_network(long, "8").unwrap();
            let b = parse_network(short, "8").unwrap();
            assert_eq!(
                (a.depth(), a.size(), a.fan_in(), a.fan_out()),
                (b.depth(), b.size(), b.fan_in(), b.fan_out()),
                "{long} vs {short}"
            );
        }
    }

    #[test]
    fn no_arguments_parse_to_no_options() {
        let opts = Options::parse(&[]).unwrap();
        assert_eq!(opts.get("seed"), None);
        assert_eq!(opts.usize_or("threads", 4).unwrap(), 4);
        assert_eq!(opts.f64_or("ratio", 1.5).unwrap(), 1.5);
        assert!(opts.allow(&[]).is_ok());
    }

    #[test]
    fn typed_accessors_name_the_flag_and_value_on_error() {
        let opts = Options::parse(&strings(&["--ratio", "fast", "--seed", "-1"])).unwrap();
        assert_eq!(opts.f64_or("ratio", 1.0).unwrap_err(), "--ratio expects a number, got 'fast'");
        assert_eq!(opts.u64_or("seed", 0).unwrap_err(), "--seed expects an integer, got '-1'");
        assert_eq!(
            Options::parse(&strings(&["--ops", "5", "--check"])).unwrap_err(),
            "flag --check needs a value"
        );
        assert_eq!(
            Options::parse(&strings(&["--ops", "5", "extra"])).unwrap_err(),
            "unexpected argument 'extra'"
        );
    }
}
