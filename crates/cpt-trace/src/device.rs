//! UE device types.
//!
//! The paper's dataset covers three device types with markedly different
//! control-plane behaviour (§4.1): phones (278 389 UEs), connected cars
//! (113 182) and tablets (39 368). Every experiment in §5 is broken down by
//! device type, so the type is carried on every [`crate::Stream`].

use std::fmt;
use std::str::FromStr;

/// The three UE device types of the paper's dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceType {
    /// Smartphones: the dominant population, frequent short
    /// CONNECTED/IDLE cycles (CONNECTED sojourn mostly 5–50 s).
    Phone,
    /// Connected cars: heavier mobility (HO/TAU fractions ~4–5× phones'),
    /// longer IDLE sojourns.
    ConnectedCar,
    /// Tablets: phone-like event mix but lower activity and longer flows.
    Tablet,
}

impl DeviceType {
    /// All device types in the order the paper's tables use.
    pub const ALL: [DeviceType; 3] = [
        DeviceType::Phone,
        DeviceType::ConnectedCar,
        DeviceType::Tablet,
    ];

    /// Dense index (0..3) for table lookups.
    pub fn index(self) -> usize {
        match self {
            DeviceType::Phone => 0,
            DeviceType::ConnectedCar => 1,
            DeviceType::Tablet => 2,
        }
    }

    /// Inverse of [`DeviceType::index`].
    pub fn from_index(idx: usize) -> Option<DeviceType> {
        DeviceType::ALL.get(idx).copied()
    }

    /// Relative population share in the paper's dataset (§4.1), used by the
    /// simulator to mix device types when generating a full trace.
    pub fn population_share(self) -> f64 {
        // 278_389 / 113_182 / 39_368 of 430_939 total UEs.
        match self {
            DeviceType::Phone => 278_389.0 / 430_939.0,
            DeviceType::ConnectedCar => 113_182.0 / 430_939.0,
            DeviceType::Tablet => 39_368.0 / 430_939.0,
        }
    }
}

// The variant names are the JSON form (JSONL traces, model metadata).
crate::json_unit_enum!(DeviceType {
    Phone => "Phone",
    ConnectedCar => "ConnectedCar",
    Tablet => "Tablet",
});

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceType::Phone => "phone",
            DeviceType::ConnectedCar => "connected_car",
            DeviceType::Tablet => "tablet",
        };
        write!(f, "{s}")
    }
}

impl FromStr for DeviceType {
    type Err = ParseDeviceTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "phone" | "phones" => Ok(DeviceType::Phone),
            "connected_car" | "car" | "connected-car" => Ok(DeviceType::ConnectedCar),
            "tablet" | "tablets" => Ok(DeviceType::Tablet),
            _ => Err(ParseDeviceTypeError(s.to_owned())),
        }
    }
}

/// Error returned when parsing an unknown device-type name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDeviceTypeError(pub String);

impl fmt::Display for ParseDeviceTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown device type: {:?}", self.0)
    }
}

impl std::error::Error for ParseDeviceTypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, dt) in DeviceType::ALL.iter().enumerate() {
            assert_eq!(dt.index(), i);
            assert_eq!(DeviceType::from_index(i), Some(*dt));
        }
        assert_eq!(DeviceType::from_index(3), None);
    }

    #[test]
    fn population_shares_sum_to_one() {
        let total: f64 = DeviceType::ALL.iter().map(|d| d.population_share()).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Phones dominate, tablets are smallest — as in §4.1.
        assert!(DeviceType::Phone.population_share() > DeviceType::ConnectedCar.population_share());
        assert!(
            DeviceType::ConnectedCar.population_share() > DeviceType::Tablet.population_share()
        );
    }

    #[test]
    fn parse_display_roundtrip() {
        for dt in DeviceType::ALL {
            assert_eq!(dt.to_string().parse::<DeviceType>(), Ok(dt));
        }
        assert!("router".parse::<DeviceType>().is_err());
    }
}
