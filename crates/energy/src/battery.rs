//! Energy Storage Device (battery) model.
//!
//! Captures the four ESD phenomena renewable-integration studies model:
//!
//! 1. **Efficiency** — storing `E` from the source yields only `σ·E` usable;
//!    the loss is charged to the battery, not the source.
//! 2. **Charge / discharge rate limits** — the charge rate is a fraction of
//!    capacity per hour (C-rate); the discharge limit is a fixed multiple of
//!    the charge limit.
//! 3. **Self-discharge** — a per-day fractional loss of the stored energy.
//! 4. **Depth of discharge (DoD)** — to preserve battery lifetime only
//!    `η·C` of the nominal capacity is ever used; all "stored" quantities in
//!    this API are within the usable window `[0, η·C]`.
//!
//! Presets for **lead-acid** and **lithium-ion** use the era-standard
//! characteristics (DoD 0.8; charge rate 12.5 %/25 % of capacity per hour;
//! efficiency 0.75/0.85; self-discharge 0.3 %/0.1 % per day; discharge:charge
//! ratio 10/5; 200/525 $ per kWh; ~78/150 Wh per litre).
//!
//! Charging and discharging are mutually exclusive within one slot (the ESD
//! has a single converter path), matching the "never simultaneously charging
//! and discharging" modeling convention.

use gm_sim::time::SimDuration;
use serde::{DeError, Deserialize, Serialize, Value};

/// Battery technology presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BatteryChemistry {
    /// Valve-regulated lead-acid, the incumbent data-center ESD.
    LeadAcid,
    /// Lithium-ion: denser, more efficient, pricier.
    LithiumIon,
}

impl BatteryChemistry {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BatteryChemistry::LeadAcid => "LA",
            BatteryChemistry::LithiumIon => "LI",
        }
    }
}

/// Full parameterisation of an ESD.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BatterySpec {
    /// Nominal capacity in Wh.
    pub capacity_wh: f64,
    /// Usable fraction of capacity (depth-of-discharge bound η).
    pub dod: f64,
    /// Charging efficiency σ (fraction of input energy actually stored).
    pub efficiency: f64,
    /// Charge-rate limit as fraction of nominal capacity per hour.
    pub charge_rate_per_hour: f64,
    /// Discharge-rate limit as a multiple of the charge-rate limit.
    pub discharge_to_charge_ratio: f64,
    /// Self-discharge per day (fraction of stored energy).
    pub self_discharge_per_day: f64,
    /// Price in $ per kWh of nominal capacity.
    pub price_per_kwh: f64,
    /// Equivalent full cycles until the pack fades to 80 % capacity
    /// (the standard end-of-life criterion).
    pub cycle_life: f64,
    /// Volumetric energy density in Wh per litre.
    pub density_wh_per_litre: f64,
}

impl Deserialize for BatterySpec {
    /// JSON has no infinity, so the unbounded limits of
    /// [`BatterySpec::ideal`] (rate, cycle life, density) are written as
    /// `null`; they read back as +∞.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let limit = |name: &str| match v.get(name) {
            Some(Value::Null) => Ok(f64::INFINITY),
            _ => serde::de_field(v, name),
        };
        Ok(BatterySpec {
            capacity_wh: serde::de_field(v, "capacity_wh")?,
            dod: serde::de_field(v, "dod")?,
            efficiency: serde::de_field(v, "efficiency")?,
            charge_rate_per_hour: limit("charge_rate_per_hour")?,
            discharge_to_charge_ratio: serde::de_field(v, "discharge_to_charge_ratio")?,
            self_discharge_per_day: serde::de_field(v, "self_discharge_per_day")?,
            price_per_kwh: serde::de_field(v, "price_per_kwh")?,
            cycle_life: limit("cycle_life")?,
            density_wh_per_litre: limit("density_wh_per_litre")?,
        })
    }
}

impl BatterySpec {
    /// Lead-acid preset at the given nominal capacity.
    pub fn lead_acid(capacity_wh: f64) -> Self {
        BatterySpec {
            capacity_wh,
            dod: 0.8,
            efficiency: 0.75,
            charge_rate_per_hour: 0.125,
            discharge_to_charge_ratio: 10.0,
            self_discharge_per_day: 0.003,
            price_per_kwh: 200.0,
            cycle_life: 600.0,
            density_wh_per_litre: 78.3,
        }
    }

    /// Lithium-ion preset at the given nominal capacity.
    pub fn lithium_ion(capacity_wh: f64) -> Self {
        BatterySpec {
            capacity_wh,
            dod: 0.8,
            efficiency: 0.85,
            charge_rate_per_hour: 0.25,
            discharge_to_charge_ratio: 5.0,
            self_discharge_per_day: 0.001,
            price_per_kwh: 525.0,
            cycle_life: 4_000.0,
            density_wh_per_litre: 150.0,
        }
    }

    /// Preset by chemistry.
    pub fn of(chem: BatteryChemistry, capacity_wh: f64) -> Self {
        match chem {
            BatteryChemistry::LeadAcid => BatterySpec::lead_acid(capacity_wh),
            BatteryChemistry::LithiumIon => BatterySpec::lithium_ion(capacity_wh),
        }
    }

    /// An idealised ESD for sizing studies: lossless, unconstrained rates,
    /// full DoD.
    pub fn ideal(capacity_wh: f64) -> Self {
        BatterySpec {
            capacity_wh,
            dod: 1.0,
            efficiency: 1.0,
            charge_rate_per_hour: f64::INFINITY,
            discharge_to_charge_ratio: 1.0,
            self_discharge_per_day: 0.0,
            price_per_kwh: 0.0,
            cycle_life: f64::INFINITY,
            density_wh_per_litre: f64::INFINITY,
        }
    }

    /// Usable capacity `η·C` in Wh.
    pub fn usable_wh(&self) -> f64 {
        self.dod * self.capacity_wh
    }

    /// Maximum charge power (W) the ESD can absorb from the source side.
    pub fn max_charge_power_w(&self) -> f64 {
        self.charge_rate_per_hour * self.capacity_wh
    }

    /// Maximum discharge power (W) the ESD can deliver.
    pub fn max_discharge_power_w(&self) -> f64 {
        self.max_charge_power_w() * self.discharge_to_charge_ratio
    }

    /// Purchase price in dollars.
    pub fn price_dollars(&self) -> f64 {
        self.price_per_kwh * self.capacity_wh / 1000.0
    }

    /// Physical volume in litres.
    pub fn volume_litres(&self) -> f64 {
        self.capacity_wh / self.density_wh_per_litre
    }
}

/// Outcome of a charge operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChargeOutcome {
    /// Energy drawn from the source (Wh) — what the PV side loses.
    pub drawn_wh: f64,
    /// Energy actually banked (Wh) — drawn × σ, clamped to the remaining
    /// headroom (any rounding sliver is booked as conversion loss).
    pub stored_wh: f64,
    /// Conversion loss (Wh) = drawn − banked.
    pub efficiency_loss_wh: f64,
}

/// The mutable state of a [`Battery`], detached from its spec, for
/// checkpointing.
///
/// Snapshots never serialize the spec: the ideal preset carries
/// `f64::INFINITY` rate limits, which JSON cannot round-trip, and the spec
/// is config-derived anyway. Restoring overlays this state onto a battery
/// rebuilt from the resume config via [`Battery::restore`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BatteryState {
    /// Usable energy stored (Wh).
    pub stored_wh: f64,
    /// Cumulative conversion loss (Wh).
    pub efficiency_loss_wh: f64,
    /// Cumulative self-discharge loss (Wh).
    pub self_discharge_wh: f64,
    /// Cumulative energy delivered to the load (Wh).
    pub discharged_wh: f64,
    /// Cumulative energy drawn from sources (Wh).
    pub drawn_wh: f64,
}

/// A stateful ESD.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    spec: BatterySpec,
    stored_wh: f64,
    /// Cumulative conversion loss (Wh).
    total_efficiency_loss_wh: f64,
    /// Cumulative self-discharge loss (Wh).
    total_self_discharge_wh: f64,
    /// Cumulative energy delivered to the load (Wh).
    total_discharged_wh: f64,
    /// Cumulative energy drawn from sources (Wh).
    total_drawn_wh: f64,
}

impl Battery {
    /// A new, empty battery.
    pub fn new(spec: BatterySpec) -> Self {
        assert!(spec.capacity_wh >= 0.0);
        assert!((0.0..=1.0).contains(&spec.dod), "DoD must be in [0,1]");
        assert!(spec.efficiency > 0.0 && spec.efficiency <= 1.0);
        Battery {
            spec,
            stored_wh: 0.0,
            total_efficiency_loss_wh: 0.0,
            total_self_discharge_wh: 0.0,
            total_discharged_wh: 0.0,
            total_drawn_wh: 0.0,
        }
    }

    /// The spec this battery was built from.
    pub fn spec(&self) -> &BatterySpec {
        &self.spec
    }

    /// Export the mutable state for checkpointing (spec excluded).
    pub fn export_state(&self) -> BatteryState {
        BatteryState {
            stored_wh: self.stored_wh,
            efficiency_loss_wh: self.total_efficiency_loss_wh,
            self_discharge_wh: self.total_self_discharge_wh,
            discharged_wh: self.total_discharged_wh,
            drawn_wh: self.total_drawn_wh,
        }
    }

    /// A battery with the given spec and a previously exported state.
    ///
    /// Same-spec restores are exact. A cross-spec branch (resuming under a
    /// different battery config) clamps the stored charge into the new
    /// usable window; the overflow is booked as self-discharge so the
    /// conservation identity still holds.
    pub fn restore(spec: BatterySpec, state: BatteryState) -> Self {
        let mut b = Battery::new(spec);
        let stored = state.stored_wh.min(b.spec.usable_wh());
        b.stored_wh = stored;
        b.total_efficiency_loss_wh = state.efficiency_loss_wh;
        b.total_self_discharge_wh = state.self_discharge_wh + (state.stored_wh - stored);
        b.total_discharged_wh = state.discharged_wh;
        b.total_drawn_wh = state.drawn_wh;
        b
    }

    /// Usable energy currently stored (Wh), in `[0, η·C]`.
    pub fn stored_wh(&self) -> f64 {
        self.stored_wh
    }

    /// Remaining usable headroom (Wh) on the stored side.
    pub fn headroom_wh(&self) -> f64 {
        (self.spec.usable_wh() - self.stored_wh).max(0.0)
    }

    /// State of charge as a fraction of the usable window.
    pub fn soc(&self) -> f64 {
        if self.spec.usable_wh() == 0.0 {
            0.0
        } else {
            self.stored_wh / self.spec.usable_wh()
        }
    }

    /// Cumulative conversion loss (Wh).
    pub fn efficiency_loss_wh(&self) -> f64 {
        self.total_efficiency_loss_wh
    }

    /// Cumulative self-discharge loss (Wh).
    pub fn self_discharge_loss_wh(&self) -> f64 {
        self.total_self_discharge_wh
    }

    /// Cumulative energy delivered to the load (Wh).
    pub fn total_discharged_wh(&self) -> f64 {
        self.total_discharged_wh
    }

    /// Cumulative energy drawn from sources (Wh).
    pub fn total_drawn_wh(&self) -> f64 {
        self.total_drawn_wh
    }

    /// Maximum energy (Wh) the ESD could *draw from a source* over `dt`,
    /// given the rate limit and the remaining headroom.
    pub fn charge_capacity_wh(&self, dt: SimDuration) -> f64 {
        let rate_bound = self.spec.max_charge_power_w() * dt.as_hours_f64();
        // Headroom is on the stored side; the source side is larger by 1/σ.
        let headroom_bound = self.headroom_wh() / self.spec.efficiency;
        rate_bound.min(headroom_bound)
    }

    /// Maximum energy (Wh) the ESD could deliver over `dt`.
    pub fn discharge_capacity_wh(&self, dt: SimDuration) -> f64 {
        let rate_bound = self.spec.max_discharge_power_w() * dt.as_hours_f64();
        rate_bound.min(self.stored_wh)
    }

    /// Offer `offered_wh` of surplus green energy over `dt`. Returns how much
    /// was drawn/stored/lost; the un-drawn remainder is the caller's to
    /// curtail or use elsewhere.
    pub fn charge(&mut self, offered_wh: f64, dt: SimDuration) -> ChargeOutcome {
        debug_assert!(offered_wh >= 0.0);
        let drawn = offered_wh.min(self.charge_capacity_wh(dt));
        // `charge_capacity_wh` already bounds `drawn` by headroom/σ, but the
        // round trip drawn·σ can overshoot the headroom by an ulp; clamp the
        // stored side and book the sliver as conversion loss so the
        // conservation identity stays exact.
        let stored = (drawn * self.spec.efficiency).min(self.headroom_wh());
        self.stored_wh += stored;
        let loss = drawn - stored;
        self.total_efficiency_loss_wh += loss;
        self.total_drawn_wh += drawn;
        ChargeOutcome { drawn_wh: drawn, stored_wh: stored, efficiency_loss_wh: loss }
    }

    /// Request `wanted_wh` over `dt`; returns the energy actually delivered.
    pub fn discharge(&mut self, wanted_wh: f64, dt: SimDuration) -> f64 {
        debug_assert!(wanted_wh >= 0.0);
        let given = wanted_wh.min(self.discharge_capacity_wh(dt));
        self.stored_wh -= given;
        self.total_discharged_wh += given;
        given
    }

    /// Apply self-discharge for an elapsed span. Call once per slot, *before*
    /// charging/discharging for that slot.
    pub fn apply_self_discharge(&mut self, dt: SimDuration) {
        if self.spec.self_discharge_per_day <= 0.0 || self.stored_wh == 0.0 {
            return;
        }
        let days = dt.as_hours_f64() / 24.0;
        let keep = (1.0 - self.spec.self_discharge_per_day).powf(days);
        let lost = self.stored_wh * (1.0 - keep);
        self.stored_wh -= lost;
        self.total_self_discharge_wh += lost;
    }

    /// Equivalent full cycles completed so far: total energy delivered
    /// over the usable window. The standard wear metric.
    pub fn equivalent_full_cycles(&self) -> f64 {
        let usable = self.spec.usable_wh();
        if usable == 0.0 {
            0.0
        } else {
            self.total_discharged_wh / usable
        }
    }

    /// Fraction of the pack's cycle life consumed so far.
    pub fn life_consumed(&self) -> f64 {
        if self.spec.cycle_life.is_infinite() {
            0.0
        } else {
            self.equivalent_full_cycles() / self.spec.cycle_life
        }
    }

    /// Dollars of battery life consumed so far (capex × life fraction) —
    /// the wear term a TCO comparison charges against storage-heavy
    /// policies.
    pub fn wear_cost_dollars(&self) -> f64 {
        self.spec.price_dollars() * self.life_consumed()
    }

    /// Conservation identity: everything drawn equals what is stored now,
    /// plus deliveries, plus both loss categories. Exposed so tests and the
    /// ledger can assert it after arbitrary operation sequences.
    pub fn conservation_residual_wh(&self) -> f64 {
        self.total_drawn_wh
            - (self.stored_wh
                + self.total_discharged_wh
                + self.total_efficiency_loss_wh
                + self.total_self_discharge_wh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: SimDuration = SimDuration(gm_sim::time::MICROS_PER_HOUR);

    #[test]
    fn presets_match_published_characteristics() {
        let la = BatterySpec::lead_acid(90_000.0);
        let li = BatterySpec::lithium_ion(90_000.0);
        assert_eq!(la.dod, 0.8);
        assert_eq!(li.dod, 0.8);
        assert_eq!(la.efficiency, 0.75);
        assert_eq!(li.efficiency, 0.85);
        // 90 kWh: LA $18,000 / ~1150 L; LI $47,250 / 600 L.
        assert!((la.price_dollars() - 18_000.0).abs() < 1.0);
        assert!((li.price_dollars() - 47_250.0).abs() < 1.0);
        assert!((la.volume_litres() - 1_150.0).abs() < 10.0, "{}", la.volume_litres());
        assert!((li.volume_litres() - 600.0).abs() < 1.0, "{}", li.volume_litres());
        // Discharge power is a multiple of charge power.
        assert!((la.max_discharge_power_w() / la.max_charge_power_w() - 10.0).abs() < 1e-9);
        assert!((li.max_discharge_power_w() / li.max_charge_power_w() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn charge_respects_efficiency_and_rate() {
        // LI 10 kWh: charge rate 25%/h = 2500 W.
        let mut b = Battery::new(BatterySpec::lithium_ion(10_000.0));
        let out = b.charge(10_000.0, HOUR);
        assert!((out.drawn_wh - 2_500.0).abs() < 1e-9, "rate-limited draw {}", out.drawn_wh);
        assert!((out.stored_wh - 2_125.0).abs() < 1e-9, "σ applied {}", out.stored_wh);
        assert!((out.efficiency_loss_wh - 375.0).abs() < 1e-9);
        assert!((b.stored_wh() - 2_125.0).abs() < 1e-9);
        assert!(b.conservation_residual_wh().abs() < 1e-9);
    }

    #[test]
    fn charge_respects_dod_headroom() {
        let mut b = Battery::new(BatterySpec::ideal(1_000.0));
        let out = b.charge(5_000.0, HOUR);
        assert_eq!(out.stored_wh, 1_000.0);
        assert_eq!(b.headroom_wh(), 0.0);
        // Full battery accepts nothing.
        let out2 = b.charge(100.0, HOUR);
        assert_eq!(out2.drawn_wh, 0.0);
        assert_eq!(b.soc(), 1.0);
    }

    #[test]
    fn stored_never_exceeds_usable_window() {
        // LA 1 kWh: usable 800 Wh.
        let mut b = Battery::new(BatterySpec::lead_acid(1_000.0));
        for _ in 0..100 {
            b.charge(1_000.0, HOUR);
        }
        assert!(b.stored_wh() <= b.spec().usable_wh() + 1e-9);
        assert!((b.stored_wh() - 800.0).abs() < 1e-6);
    }

    #[test]
    fn discharge_bounded_by_store_and_rate() {
        let mut b = Battery::new(BatterySpec::lithium_ion(10_000.0));
        b.charge(2_000.0, HOUR);
        let stored = b.stored_wh();
        // Ask for more than stored.
        let got = b.discharge(100_000.0, HOUR);
        assert!((got - stored).abs() < 1e-9, "delivered {got} of stored {stored}");
        assert_eq!(b.stored_wh(), 0.0);
        assert!(b.conservation_residual_wh().abs() < 1e-9);
    }

    #[test]
    fn discharge_rate_limit_binds_for_large_batteries() {
        // LA 100 kWh: charge 12.5 kW, discharge 125 kW — fill it first (ideal
        // trick: charge many hours), then check one-hour discharge cap.
        let mut b = Battery::new(BatterySpec::lead_acid(100_000.0));
        for _ in 0..20 {
            b.charge(20_000.0, HOUR);
        }
        assert!(b.stored_wh() > 70_000.0);
        let got = b.discharge(f64::INFINITY.min(1e12), HOUR);
        assert!((got - 80_000.0).abs() < 1e-6 || got <= 125_000.0);
    }

    #[test]
    fn self_discharge_decays_store() {
        let mut b = Battery::new(BatterySpec::lead_acid(10_000.0));
        b.charge(4_000.0, HOUR);
        let before = b.stored_wh();
        b.apply_self_discharge(SimDuration::from_days(1));
        let after = b.stored_wh();
        assert!((before - after) / before > 0.0029 && (before - after) / before < 0.0031);
        assert!(b.self_discharge_loss_wh() > 0.0);
        assert!(b.conservation_residual_wh().abs() < 1e-9);
    }

    #[test]
    fn li_self_discharges_slower_than_la() {
        let mut la = Battery::new(BatterySpec::lead_acid(10_000.0));
        let mut li = Battery::new(BatterySpec::lithium_ion(10_000.0));
        la.charge(1_000.0, HOUR);
        li.charge(1_000.0, HOUR);
        la.apply_self_discharge(SimDuration::from_days(10));
        li.apply_self_discharge(SimDuration::from_days(10));
        assert!(la.self_discharge_loss_wh() > li.self_discharge_loss_wh());
    }

    #[test]
    fn zero_capacity_battery_is_inert() {
        let mut b = Battery::new(BatterySpec::lithium_ion(0.0));
        let out = b.charge(100.0, HOUR);
        assert_eq!(out.drawn_wh, 0.0);
        assert_eq!(b.discharge(100.0, HOUR), 0.0);
        assert_eq!(b.soc(), 0.0);
    }

    #[test]
    fn ideal_battery_spec_roundtrips_through_json() {
        let spec = BatterySpec::ideal(1.0e9);
        let json = serde_json::to_string(&spec).expect("serialises");
        assert!(json.contains("\"cycle_life\":null"), "{json}");
        let back: BatterySpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, spec);
        assert!(serde_json::from_str::<BatterySpec>(&json.replace("\"dod\":1.0", "\"dod\":null"))
            .is_err());
    }

    #[test]
    fn ideal_battery_is_lossless() {
        let mut b = Battery::new(BatterySpec::ideal(1_000_000.0));
        let out = b.charge(123.0, HOUR);
        assert_eq!(out.stored_wh, 123.0);
        assert_eq!(out.efficiency_loss_wh, 0.0);
        b.apply_self_discharge(SimDuration::from_days(30));
        assert_eq!(b.stored_wh(), 123.0);
        assert_eq!(b.discharge(123.0, HOUR), 123.0);
        assert!(b.conservation_residual_wh().abs() < 1e-9);
    }

    #[test]
    fn conservation_after_random_walk() {
        let mut b = Battery::new(BatterySpec::lithium_ion(50_000.0));
        let mut x = 12345u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let amount = (x >> 33) as f64 / 1e4;
            if x.is_multiple_of(3) {
                b.charge(amount, HOUR);
            } else if x % 3 == 1 {
                b.discharge(amount, HOUR);
            } else {
                b.apply_self_discharge(HOUR);
            }
        }
        assert!(
            b.conservation_residual_wh().abs() < 1e-6,
            "residual {}",
            b.conservation_residual_wh()
        );
    }

    #[test]
    fn charge_books_headroom_clamp_to_loss_exactly() {
        // Regression: a full-window refill of a nearly empty battery is
        // headroom-bound, and the drawn→stored round trip `fl(fl(h/σ)·σ)`
        // overshoots the headroom `h` by an ulp on a sizeable fraction of
        // residues. The old code clamped `stored_wh` silently while
        // reporting the unclamped amount, so the per-call delta identity
        // broke. With the fix it is *exact*:
        // stored_after == stored_before + outcome.stored_wh.
        let mut spec = BatterySpec::lithium_ion(10_000.0);
        // Rate bound well above usable/σ so the headroom bound governs a
        // from-empty refill in a single one-hour charge.
        spec.charge_rate_per_hour = 2.0;
        spec.discharge_to_charge_ratio = 1.0;
        let mut b = Battery::new(spec);
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..4_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Drain to a small random residue, then refill the whole window.
            let residue = (x >> 40) as f64 / 16_777_216.0 * 5.0;
            b.discharge((b.stored_wh() - residue).max(0.0), HOUR);
            let before = b.stored_wh();
            let out = b.charge(1e9, HOUR);
            assert_eq!(
                before + out.stored_wh,
                b.stored_wh(),
                "charge delta identity must be exact (before {before}, stored {})",
                out.stored_wh
            );
            assert!(b.stored_wh() <= b.spec().usable_wh(), "stored above usable window");
        }
        assert!(
            b.conservation_residual_wh().abs() < 1e-6,
            "residual {} after deep-cycle walk",
            b.conservation_residual_wh()
        );
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let mut b = Battery::new(BatterySpec::lithium_ion(10_000.0));
        b.charge(3_000.0, HOUR);
        b.discharge(700.0, HOUR);
        b.apply_self_discharge(SimDuration::from_days(2));
        let restored = Battery::restore(*b.spec(), b.export_state());
        assert_eq!(b, restored);
        assert!(restored.conservation_residual_wh().abs() < 1e-9);
    }

    #[test]
    fn cross_spec_restore_clamps_and_conserves() {
        let mut b = Battery::new(BatterySpec::ideal(10_000.0));
        b.charge(9_000.0, HOUR);
        // Branch into a battery with a smaller usable window.
        let small = Battery::restore(BatterySpec::lithium_ion(1_000.0), b.export_state());
        assert!((small.stored_wh() - small.spec().usable_wh()).abs() < 1e-9);
        assert!(small.conservation_residual_wh().abs() < 1e-9);
    }

    #[test]
    fn cycle_accounting_and_wear() {
        // LI 10 kWh: usable 8 kWh. Deliver 16 kWh total = 2 EFC.
        let mut b = Battery::new(BatterySpec::lithium_ion(10_000.0));
        for _ in 0..20 {
            b.charge(4_000.0, HOUR);
            b.discharge(800.0, HOUR);
        }
        let delivered = b.total_discharged_wh();
        let efc = b.equivalent_full_cycles();
        assert!((efc - delivered / 8_000.0).abs() < 1e-9);
        // Life fraction and wear cost follow.
        assert!((b.life_consumed() - efc / 4_000.0).abs() < 1e-12);
        let expected_wear = 5_250.0 * b.life_consumed();
        assert!((b.wear_cost_dollars() - expected_wear).abs() < 1e-9);
    }

    #[test]
    fn lead_acid_wears_faster_per_cycle() {
        let mut la = Battery::new(BatterySpec::lead_acid(10_000.0));
        let mut li = Battery::new(BatterySpec::lithium_ion(10_000.0));
        for _ in 0..10 {
            la.charge(1_000.0, HOUR);
            li.charge(1_000.0, HOUR);
            la.discharge(500.0, HOUR);
            li.discharge(500.0, HOUR);
        }
        // Same energy throughput, LA consumes a larger life fraction
        // (600 vs 4000 cycle life).
        assert!(la.life_consumed() > li.life_consumed() * 5.0);
    }

    #[test]
    fn ideal_battery_never_wears() {
        let mut b = Battery::new(BatterySpec::ideal(1_000.0));
        b.charge(1_000.0, HOUR);
        b.discharge(1_000.0, HOUR);
        assert_eq!(b.life_consumed(), 0.0);
        assert_eq!(b.wear_cost_dollars(), 0.0);
        assert!(b.equivalent_full_cycles() > 0.0);
    }

    #[test]
    fn zero_capacity_has_zero_cycles() {
        let b = Battery::new(BatterySpec::lithium_ion(0.0));
        assert_eq!(b.equivalent_full_cycles(), 0.0);
        assert_eq!(b.wear_cost_dollars(), 0.0);
    }

    #[test]
    #[should_panic(expected = "DoD must be in [0,1]")]
    fn bad_dod_panics() {
        let mut spec = BatterySpec::lead_acid(1.0);
        spec.dod = 1.5;
        let _ = Battery::new(spec);
    }
}
