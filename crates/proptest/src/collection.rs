//! Collection strategies.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// An admissible length range for generated collections.
#[derive(Debug, Clone)]
pub struct SizeRange {
    /// Minimum length (inclusive).
    pub min: usize,
    /// Maximum length (inclusive).
    pub max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// A strategy producing `Vec`s of `element` values with a length drawn
/// from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`fn@vec`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = self.size.max - self.size.min;
        let len = self.size.min + rng.below(span as u64 + 1) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_lengths_respect_the_size_range() {
        let mut rng = TestRng::for_test("collection::tests");
        let s = vec(0u64..100, 2..5);
        for _ in 0..500 {
            let v = s.generate(&mut rng);
            assert!((2..=4).contains(&v.len()), "len {}", v.len());
            assert!(v.iter().all(|&x| x < 100));
        }
        let exact = vec(0u64..10, 3usize);
        assert_eq!(exact.generate(&mut rng).len(), 3);
    }
}
