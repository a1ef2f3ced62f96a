//! Unit-safe physical quantities.
//!
//! The simulator mixes seconds, joules, watts, bytes, and operation counts in
//! nearly every formula; these newtypes make unit errors compile errors while
//! keeping arithmetic ergonomic (C-NEWTYPE, C-OVERLOAD).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

macro_rules! define_quantity {
    ($(#[$meta:meta])* $name:ident, $getter:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw value expressed in the base unit.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the base unit.
            pub const fn $getter(self) -> f64 {
                self.0
            }

            /// Returns the larger of two quantities.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of two quantities.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// True when the value is finite and non-negative.
            pub fn is_valid(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{:.6} ", $unit), self.0)
            }
        }
    };
}

define_quantity!(
    /// A duration in seconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_common::units::Seconds;
    /// let total = Seconds::new(1.5) + Seconds::new(0.5);
    /// assert_eq!(total.seconds(), 2.0);
    /// ```
    Seconds,
    seconds,
    "s"
);

define_quantity!(
    /// An energy in joules.
    Joules,
    joules,
    "J"
);

define_quantity!(
    /// A power in watts.
    Watts,
    watts,
    "W"
);

define_quantity!(
    /// A data volume in bytes.
    Bytes,
    bytes,
    "B"
);

define_quantity!(
    /// A count of arithmetic operations (floating-point or otherwise).
    OpCount,
    count,
    "ops"
);

impl Seconds {
    /// Builds a duration from a count of cycles at a clock frequency.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_common::units::Seconds;
    /// let t = Seconds::from_cycles(312_500_000.0, 312.5e6);
    /// assert!((t.seconds() - 1.0).abs() < 1e-12);
    /// ```
    pub fn from_cycles(cycles: f64, frequency_hz: f64) -> Self {
        Seconds::new(cycles / frequency_hz)
    }
}

impl Bytes {
    /// Number of 64-byte main-memory lines this volume touches, rounded up.
    pub fn lines(self) -> u64 {
        (self.0 / 64.0).ceil() as u64
    }
}

// Cross-unit arithmetic that has physical meaning.

impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.watts() * rhs.seconds())
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.joules() / rhs.seconds())
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.joules() / rhs.watts())
    }
}

/// Energy-delay product, the energy-efficiency metric of the paper's §VI-G.
///
/// # Examples
///
/// ```
/// use pim_common::units::{edp, Joules, Seconds};
/// let e = edp(Joules::new(2.0), Seconds::new(3.0));
/// assert_eq!(e, 6.0);
/// ```
pub fn edp(energy: Joules, time: Seconds) -> f64 {
    energy.joules() * time.seconds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::check;

    #[test]
    fn watts_times_seconds_is_joules() {
        let e = Watts::new(10.0) * Seconds::new(3.0);
        assert_eq!(e, Joules::new(30.0));
    }

    #[test]
    fn joules_over_seconds_is_watts() {
        let p = Joules::new(30.0) / Seconds::new(3.0);
        assert_eq!(p, Watts::new(10.0));
    }

    #[test]
    fn joules_over_watts_is_seconds() {
        let t = Joules::new(30.0) / Watts::new(10.0);
        assert_eq!(t, Seconds::new(3.0));
    }

    #[test]
    fn bytes_line_roundtrip() {
        assert_eq!(Bytes::new(100.0).lines(), 2);
        assert_eq!(Bytes::new(128.0).lines(), 2);
        assert_eq!(Bytes::ZERO.lines(), 0);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Seconds = (1..=4).map(|i| Seconds::new(f64::from(i))).sum();
        assert_eq!(total.seconds(), 10.0);
    }

    #[test]
    fn display_includes_unit() {
        assert!(Watts::new(1.0).to_string().ends_with('W'));
        assert!(OpCount::new(5.0).to_string().ends_with("ops"));
    }

    #[test]
    fn validity_rejects_nan_and_negative() {
        assert!(Seconds::new(1.0).is_valid());
        assert!(!Seconds::new(-1.0).is_valid());
        assert!(!Seconds::new(f64::NAN).is_valid());
    }

    #[test]
    fn add_commutes() {
        check(64, "add_commutes", |g| {
            let a = g.draw(0.0f64..1e12);
            let b = g.draw(0.0f64..1e12);
            assert_eq!(
                Joules::new(a) + Joules::new(b),
                Joules::new(b) + Joules::new(a)
            );
        });
    }

    #[test]
    fn max_ge_both() {
        check(64, "max_ge_both", |g| {
            let a = g.draw(0.0f64..1e12);
            let b = g.draw(0.0f64..1e12);
            let m = Seconds::new(a).max(Seconds::new(b));
            assert!(m >= Seconds::new(a) && m >= Seconds::new(b));
        });
    }

    #[test]
    fn cycles_inverse_of_frequency() {
        check(64, "cycles_inverse_of_frequency", |g| {
            let cycles = g.draw(1.0f64..1e12);
            let freq = g.draw(1.0f64..1e10);
            let t = Seconds::from_cycles(cycles, freq);
            assert!((t.seconds() * freq - cycles).abs() / cycles < 1e-9);
        });
    }
}
