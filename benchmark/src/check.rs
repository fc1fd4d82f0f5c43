//! Correctness checks. A benchmark that does not check its outputs measures
//! how fast a program can be wrong.

/// A constant-space digest of the values a load thread received: count,
/// 128-bit sum and xor. A counter must hand out exactly `0..n`, so the
/// digest of everything received has to equal the digest of that range; one
/// duplicated, skipped or invented value changes the sum or the xor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValueFold {
    count: u64,
    sum: u128,
    xor: u64,
}

impl ValueFold {
    /// Folds one received value in.
    #[inline]
    pub fn add(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.xor ^= value;
    }

    /// Folds another thread's digest in.
    pub fn merge(&mut self, other: &ValueFold) {
        self.count += other.count;
        self.sum += other.sum;
        self.xor ^= other.xor;
    }

    /// How many values were folded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The digest of the range `0..n`, in closed form.
    pub fn of_range(n: u64) -> ValueFold {
        let xor = match n % 4 {
            0 => 0,
            1 => n - 1,
            2 => 1,
            _ => n,
        };
        ValueFold { count: n, sum: u128::from(n) * u128::from(n.saturating_sub(1)) / 2, xor }
    }

    /// Whether the folded values can be exactly `0..count`.
    pub fn is_permutation(&self) -> bool {
        *self == ValueFold::of_range(self.count)
    }
}

/// The outcome of one named check.
#[derive(Clone, Debug)]
pub struct Check {
    /// Which property was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The observed figures, for the report.
    pub detail: String,
}

impl Check {
    /// A check named `name` that held iff `ok`.
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }

    /// The permutation check over everything the load threads received.
    pub fn permutation(fold: &ValueFold) -> Check {
        Check::new(
            "values_are_0_to_n",
            fold.is_permutation(),
            format!("n={} sum={} xor={}", fold.count, fold.sum, fold.xor),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_a_fold_of_the_range() {
        for n in 0..70u64 {
            let mut f = ValueFold::default();
            (0..n).for_each(|v| f.add(v));
            assert_eq!(f, ValueFold::of_range(n), "n={n}");
            assert!(f.is_permutation());
        }
    }

    #[test]
    fn one_duplicate_fails_the_check() {
        let mut f = ValueFold::default();
        // 0..1000 with 17 handed out twice and 18 never.
        (0..1000u64).map(|v| if v == 18 { 17 } else { v }).for_each(|v| f.add(v));
        assert!(!f.is_permutation());
        assert!(!Check::permutation(&f).ok);
    }

    #[test]
    fn merge_is_order_free() {
        let (mut a, mut b) = (ValueFold::default(), ValueFold::default());
        (0..500u64).for_each(|v| if v % 2 == 0 { a.add(v) } else { b.add(v) });
        a.merge(&b);
        assert!(a.is_permutation());
    }
}
