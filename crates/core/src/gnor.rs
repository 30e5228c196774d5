//! The generalized NOR (GNOR) gate.
//!
//! A GNOR gate is a dynamic-logic pull-down column of ambipolar CNFETs, one
//! per input, plus a precharge transistor `TPC` and an evaluation transistor
//! `TEV` of opposite polarities (Fig. 2). Each input device's polarity gate
//! is programmed to one of the three levels, which selects how the input
//! enters the NOR:
//!
//! | PG level | device | effect on input `x` |
//! |----------|--------|---------------------|
//! | `V+`     | n-type | participates as `x` |
//! | `V−`     | p-type | participates as `x̄` |
//! | `V0`     | off    | dropped             |
//!
//! so the configured gate computes `Y = NOR(Cᵢ ⊕ xᵢ)` over the participating
//! inputs — the paper writes `NOR(C1 ⊕ A, C2 ⊕ B) = EXOR` for a suitable
//! choice of controls.

use cnfet::{AmbipolarCnfet, PgLevel};
use std::fmt;

/// Per-input polarity control of a GNOR gate.
///
/// This is the logical view of the PG level programmed into the input's
/// ambipolar CNFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InputPolarity {
    /// `Cᵢ = 0` (PG = `V+`, n-type): the input participates as `x`.
    Pass,
    /// `Cᵢ = 1` (PG = `V−`, p-type): the input participates as `x̄`.
    Invert,
    /// PG = `V0`: the input is dropped from the function.
    #[default]
    Drop,
}

impl InputPolarity {
    /// The PG level that programs this control.
    pub fn pg_level(self) -> PgLevel {
        match self {
            InputPolarity::Pass => PgLevel::VPlus,
            InputPolarity::Invert => PgLevel::VMinus,
            InputPolarity::Drop => PgLevel::VZero,
        }
    }

    /// The control corresponding to a PG level.
    pub fn from_pg_level(level: PgLevel) -> InputPolarity {
        match level {
            PgLevel::VPlus => InputPolarity::Pass,
            PgLevel::VMinus => InputPolarity::Invert,
            PgLevel::VZero => InputPolarity::Drop,
        }
    }

    /// True if the input participates in the NOR.
    pub fn is_active(self) -> bool {
        !matches!(self, InputPolarity::Drop)
    }
}

impl fmt::Display for InputPolarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InputPolarity::Pass => "pass",
            InputPolarity::Invert => "invert",
            InputPolarity::Drop => "drop",
        };
        write!(f, "{s}")
    }
}

/// A configured combinational GNOR gate.
///
/// # Example
///
/// The paper's Fig. 2 configuration, `Y = NOR(A, B̄, D)` with input `C`
/// inhibited:
///
/// ```
/// use ambipla_core::{GnorGate, InputPolarity::*};
///
/// let gate = GnorGate::new(vec![Pass, Invert, Drop, Pass]);
/// // Y is low iff A, !B or D is high.
/// assert!(!gate.evaluate(&[true, true, false, false])); // A high → 0
/// assert!(!gate.evaluate(&[false, false, false, false])); // B low → B̄ high → 0
/// assert!(gate.evaluate(&[false, true, true, false])); // only C high → ignored → 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GnorGate {
    controls: Vec<InputPolarity>,
}

impl GnorGate {
    /// A gate with the given per-input controls.
    pub fn new(controls: Vec<InputPolarity>) -> GnorGate {
        GnorGate { controls }
    }

    /// An unconfigured gate (all inputs dropped) over `n` inputs.
    ///
    /// An all-dropped dynamic NOR never discharges: it evaluates to constant
    /// 1.
    pub fn unconfigured(n: usize) -> GnorGate {
        GnorGate {
            controls: vec![InputPolarity::Drop; n],
        }
    }

    /// Number of input columns (including dropped ones).
    pub fn width(&self) -> usize {
        self.controls.len()
    }

    /// The control of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn control(&self, i: usize) -> InputPolarity {
        self.controls[i]
    }

    /// All controls.
    pub fn controls(&self) -> &[InputPolarity] {
        &self.controls
    }

    /// Number of participating (non-dropped) inputs.
    pub fn active_inputs(&self) -> usize {
        self.controls.iter().filter(|c| c.is_active()).count()
    }

    /// Combinational evaluation: `Y = NOR(Cᵢ ⊕ xᵢ)` over active inputs.
    ///
    /// An all-dropped gate returns `true` (the precharged level survives).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != width()`.
    pub fn evaluate(&self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.width(), "input arity mismatch");
        !self.controls.iter().zip(inputs).any(|(c, &x)| match c {
            InputPolarity::Pass => x,
            InputPolarity::Invert => !x,
            InputPolarity::Drop => false,
        })
    }

    /// Width-generic bit-parallel evaluation: `inputs[i·words + w]`
    /// carries lanes `w·64 .. (w+1)·64` of input `i`, and `out` (length
    /// `words`) receives the gate output in the same lane order. Each
    /// control is decoded once per call, so wider blocks amortize the
    /// per-literal branch over `words × 64` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`, `inputs.len() != width() × words`, or
    /// `out.len() != words`.
    pub fn evaluate_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
        assert!(words > 0, "at least one lane word per signal");
        assert_eq!(inputs.len(), self.width() * words, "input arity mismatch");
        assert_eq!(out.len(), words, "one output word per lane word");
        // `out` doubles as the discharge accumulator.
        out.fill(0);
        for (i, c) in self.controls.iter().enumerate() {
            let row = &inputs[i * words..(i + 1) * words];
            match c {
                InputPolarity::Pass => {
                    for (o, &x) in out.iter_mut().zip(row) {
                        *o |= x;
                    }
                }
                InputPolarity::Invert => {
                    for (o, &x) in out.iter_mut().zip(row) {
                        *o |= !x;
                    }
                }
                InputPolarity::Drop => {}
            }
        }
        for o in out.iter_mut() {
            *o = !*o;
        }
    }

    /// The PG levels programming this gate's input devices.
    pub fn pg_levels(&self) -> Vec<PgLevel> {
        self.controls.iter().map(|c| c.pg_level()).collect()
    }

    /// Rebuild a gate from PG levels (readback from a programmed array).
    pub fn from_pg_levels(levels: &[PgLevel]) -> GnorGate {
        GnorGate {
            controls: levels
                .iter()
                .map(|&l| InputPolarity::from_pg_level(l))
                .collect(),
        }
    }
}

/// Clock phase of a dynamic-logic gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// `TPC` conducting, `TEV` high-resistive: output node charges high.
    Precharge,
    /// `TEV` conducting, `TPC` high-resistive: pull-down network may
    /// discharge the output.
    Evaluate,
}

/// Cycle-accurate dynamic GNOR cell: the Fig. 2 circuit with `TPC`/`TEV`.
///
/// The cell steps through [`Phase::Precharge`] / [`Phase::Evaluate`] under
/// explicit clocking; the output is only valid at the end of an evaluate
/// phase. `TPC` and `TEV` are modelled as ambipolar CNFETs of opposite
/// polarity driven by the same clock, exactly as in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicGnor {
    gate: GnorGate,
    tpc: AmbipolarCnfet,
    tev: AmbipolarCnfet,
    output_high: bool,
    phase: Phase,
}

impl DynamicGnor {
    /// Wrap a configured gate in the dynamic cell. `TPC` is p-type (conducts
    /// while the clock is low) and `TEV` n-type (conducts while the clock is
    /// high).
    pub fn new(gate: GnorGate) -> DynamicGnor {
        DynamicGnor {
            gate,
            tpc: AmbipolarCnfet::new(PgLevel::VMinus),
            tev: AmbipolarCnfet::new(PgLevel::VPlus),
            output_high: true,
            phase: Phase::Precharge,
        }
    }

    /// The configured gate.
    pub fn gate(&self) -> &GnorGate {
        &self.gate
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Current output node level (only meaningful after an evaluate step).
    pub fn output(&self) -> bool {
        self.output_high
    }

    /// Apply one clock level. Clock low → precharge (output pulled high
    /// through `TPC`); clock high → evaluate (output discharges through the
    /// pull-down column iff any active `Cᵢ ⊕ xᵢ` is high **and** `TEV`
    /// conducts).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the gate width.
    pub fn clock(&mut self, clock_high: bool, inputs: &[bool]) {
        // TPC (p-type) conducts when the clock is low; TEV (n-type) when
        // high. Their opposite polarities guarantee they never fight.
        let tpc_on = self.tpc.conduction(clock_high).is_on();
        let tev_on = self.tev.conduction(clock_high).is_on();
        debug_assert!(tpc_on != tev_on, "TPC and TEV must alternate");
        if tpc_on {
            self.phase = Phase::Precharge;
            self.output_high = true;
        } else if tev_on {
            self.phase = Phase::Evaluate;
            // Discharge is one-way: once low, the node stays low until the
            // next precharge (dynamic-logic monotonicity).
            if !self.gate.evaluate(inputs) {
                self.output_high = false;
            }
        }
    }

    /// Run one full precharge+evaluate cycle and return the evaluated
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the gate width.
    pub fn cycle(&mut self, inputs: &[bool]) -> bool {
        self.clock(false, inputs);
        self.clock(true, inputs);
        self.output_high
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use InputPolarity::*;

    #[test]
    fn exor_from_two_gnor_inputs() {
        // Paper Section 3: NOR(C1 ⊕ A, C2 ⊕ B) with (C1,C2)=(0,1) gives
        // NOR(A, B̄) = Ā·B — one minterm of EXOR; with both control choices
        // the pair of gates covers EXOR. Check the single gate first.
        let gate = GnorGate::new(vec![Pass, Invert]);
        assert!(!gate.evaluate(&[true, true]));
        assert!(gate.evaluate(&[false, true])); // Ā·B
        assert!(!gate.evaluate(&[false, false]));
        assert!(!gate.evaluate(&[true, false]));
    }

    #[test]
    fn fig2_configuration() {
        // Y = NOR(A, B̄, D); C dropped.
        let gate = GnorGate::new(vec![Pass, Invert, Drop, Pass]);
        for bits in 0..16u8 {
            let x: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let want = !(x[0] || !x[1] || x[3]);
            assert_eq!(gate.evaluate(&x), want, "bits={bits:04b}");
        }
    }

    #[test]
    fn unconfigured_gate_is_constant_one() {
        let gate = GnorGate::unconfigured(3);
        for bits in 0..8u8 {
            let x: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert!(gate.evaluate(&x));
        }
        assert_eq!(gate.active_inputs(), 0);
    }

    #[test]
    fn pg_level_roundtrip() {
        let gate = GnorGate::new(vec![Pass, Invert, Drop]);
        let levels = gate.pg_levels();
        assert_eq!(
            levels,
            vec![PgLevel::VPlus, PgLevel::VMinus, PgLevel::VZero]
        );
        assert_eq!(GnorGate::from_pg_levels(&levels), gate);
    }

    #[test]
    fn dynamic_cell_precharges_high() {
        let mut cell = DynamicGnor::new(GnorGate::new(vec![Pass]));
        cell.clock(false, &[true]);
        assert_eq!(cell.phase(), Phase::Precharge);
        assert!(cell.output(), "precharge drives the node high");
    }

    #[test]
    fn dynamic_cell_evaluates_like_combinational() {
        let gate = GnorGate::new(vec![Pass, Invert, Drop, Pass]);
        let mut cell = DynamicGnor::new(gate.clone());
        for bits in 0..16u8 {
            let x: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(cell.cycle(&x), gate.evaluate(&x), "bits={bits:04b}");
        }
    }

    #[test]
    fn discharge_is_monotonic_within_evaluate() {
        // Once discharged, input wiggles cannot re-charge the node until the
        // next precharge.
        let mut cell = DynamicGnor::new(GnorGate::new(vec![Pass]));
        cell.clock(false, &[false]);
        cell.clock(true, &[true]); // discharges
        assert!(!cell.output());
        cell.clock(true, &[false]); // still evaluate; node must stay low
        assert!(!cell.output());
        cell.clock(false, &[false]); // precharge recovers
        assert!(cell.output());
    }

    #[test]
    fn single_input_inverter() {
        // A one-input GNOR with Pass control is an inverter; with Invert
        // control it is a buffer — the "internal signal inversion" of the
        // paper at its smallest.
        let inv = GnorGate::new(vec![Pass]);
        assert!(inv.evaluate(&[false]));
        assert!(!inv.evaluate(&[true]));
        let buf = GnorGate::new(vec![Invert]);
        assert!(buf.evaluate(&[true]));
        assert!(!buf.evaluate(&[false]));
    }

    #[test]
    #[should_panic(expected = "input arity mismatch")]
    fn arity_mismatch_panics() {
        GnorGate::new(vec![Pass, Pass]).evaluate(&[true]);
    }
}
