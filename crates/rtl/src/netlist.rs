//! A minimal combinational netlist: typed gates, topological simulation,
//! gate counting and toggle counting.
//!
//! The paper's unit costs come from RTL synthesis; this module lets the
//! repository carry an actual gate-level description of each Table I
//! unit, simulate it bit-exactly against the behavioral models, and
//! derive gate counts / switching activity as an *independent*
//! cross-check of the calibrated cost model in `pacq-energy`.
//!
//! Construction doubles as topological ordering: every gate may only
//! reference previously created nodes, so simulation is a single forward
//! pass.

use core::fmt;

/// Index of a node (gate output) in the netlist.
pub type NodeId = u32;

/// A bundle of nodes interpreted LSB-first.
pub type Bus = Vec<NodeId>;

/// Gate kinds supported by the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// External input.
    Input,
    /// Constant driver.
    Const(bool),
    /// Inverter.
    Not(NodeId),
    /// 2-input AND.
    And(NodeId, NodeId),
    /// 2-input OR.
    Or(NodeId, NodeId),
    /// 2-input XOR.
    Xor(NodeId, NodeId),
    /// 2:1 multiplexer: `sel ? hi : lo`.
    Mux {
        /// Select input.
        sel: NodeId,
        /// Output when `sel` is 0.
        lo: NodeId,
        /// Output when `sel` is 1.
        hi: NodeId,
    },
}

impl Gate {
    /// Area in NAND2 gate equivalents (standard-cell rules of thumb).
    pub fn area_ge(&self) -> f64 {
        match self {
            Gate::Input | Gate::Const(_) => 0.0,
            Gate::Not(_) => 0.5,
            Gate::And(..) | Gate::Or(..) => 1.0,
            Gate::Xor(..) => 2.5,
            Gate::Mux { .. } => 2.0,
        }
    }

    /// The stable gate-class token used by toggle histograms and the
    /// activity energy BOM (`None` for inputs and constant drivers,
    /// which carry no cell of their own).
    pub fn class_name(&self) -> Option<&'static str> {
        match self {
            Gate::Input | Gate::Const(_) => None,
            Gate::Not(_) => Some("not"),
            Gate::And(..) => Some("and"),
            Gate::Or(..) => Some("or"),
            Gate::Xor(..) => Some("xor"),
            Gate::Mux { .. } => Some("mux"),
        }
    }
}

/// The gate-class tokens of [`Gate::class_name`] in stable histogram
/// order.
pub const GATE_CLASSES: [&str; 5] = ["not", "and", "or", "xor", "mux"];

/// Aggregate gate statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCounts {
    /// Inverters.
    pub not: u64,
    /// AND gates.
    pub and: u64,
    /// OR gates.
    pub or: u64,
    /// XOR gates.
    pub xor: u64,
    /// Multiplexers.
    pub mux: u64,
}

impl GateCounts {
    /// Total logic gates (inputs/constants excluded).
    pub fn total(&self) -> u64 {
        self.not + self.and + self.or + self.xor + self.mux
    }
}

impl fmt::Display for GateCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates (not {}, and {}, or {}, xor {}, mux {})",
            self.total(),
            self.not,
            self.and,
            self.or,
            self.xor,
            self.mux
        )
    }
}

/// A combinational netlist with simulation state.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    value: Vec<bool>,
    toggles: Vec<u64>,
    inputs: Vec<NodeId>,
    simulations: u64,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, gate: Gate) -> NodeId {
        // Topological-order invariant: operands must already exist.
        let next = self.gates.len() as NodeId;
        match gate {
            Gate::Not(a) => debug_assert!(a < next),
            Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => {
                debug_assert!(a < next && b < next);
            }
            Gate::Mux { sel, lo, hi } => {
                debug_assert!(sel < next && lo < next && hi < next);
            }
            _ => {}
        }
        self.gates.push(gate);
        self.value.push(false);
        self.toggles.push(0);
        next
    }

    /// Adds an external input.
    pub fn input(&mut self) -> NodeId {
        let id = self.push(Gate::Input);
        self.inputs.push(id);
        id
    }

    /// Adds a bus of `width` external inputs (LSB first).
    pub fn input_bus(&mut self, width: usize) -> Bus {
        (0..width).map(|_| self.input()).collect()
    }

    /// Adds a constant driver.
    pub fn constant(&mut self, v: bool) -> NodeId {
        self.push(Gate::Const(v))
    }

    /// Adds a constant bus holding `value` (LSB first).
    pub fn constant_bus(&mut self, value: u64, width: usize) -> Bus {
        (0..width)
            .map(|i| self.constant((value >> i) & 1 == 1))
            .collect()
    }

    /// NOT gate.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.push(Gate::Not(a))
    }

    /// AND gate.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::And(a, b))
    }

    /// OR gate.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Or(a, b))
    }

    /// XOR gate.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Xor(a, b))
    }

    /// 2:1 mux (`sel ? hi : lo`).
    pub fn mux(&mut self, sel: NodeId, lo: NodeId, hi: NodeId) -> NodeId {
        self.push(Gate::Mux { sel, lo, hi })
    }

    /// Bus-wide mux.
    ///
    /// # Panics
    ///
    /// Panics if the bus widths differ.
    pub fn mux_bus(&mut self, sel: NodeId, lo: &[NodeId], hi: &[NodeId]) -> Bus {
        assert_eq!(lo.len(), hi.len(), "mux bus width mismatch");
        lo.iter()
            .zip(hi)
            .map(|(&l, &h)| self.mux(sel, l, h))
            .collect()
    }

    /// Reduction OR over a bus (returns constant 0 for an empty bus).
    pub fn or_reduce(&mut self, bus: &[NodeId]) -> NodeId {
        match bus.split_first() {
            None => self.constant(false),
            Some((&first, rest)) => {
                let mut acc = first;
                for &b in rest {
                    acc = self.or(acc, b);
                }
                acc
            }
        }
    }

    /// Reduction AND over a bus (returns constant 1 for an empty bus).
    pub fn and_reduce(&mut self, bus: &[NodeId]) -> NodeId {
        match bus.split_first() {
            None => self.constant(true),
            Some((&first, rest)) => {
                let mut acc = first;
                for &b in rest {
                    acc = self.and(acc, b);
                }
                acc
            }
        }
    }

    /// Simulates the netlist for one input vector (LSB-first order of
    /// `input()` calls), updating toggle counts.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the declared input count.
    pub fn simulate(&mut self, inputs: &[bool]) {
        assert_eq!(inputs.len(), self.inputs.len(), "input width mismatch");
        let mut next_input = 0usize;
        for i in 0..self.gates.len() {
            let v = match self.gates[i] {
                Gate::Input => {
                    let v = inputs[next_input];
                    next_input += 1;
                    v
                }
                Gate::Const(c) => c,
                Gate::Not(a) => !self.value[a as usize],
                Gate::And(a, b) => self.value[a as usize] & self.value[b as usize],
                Gate::Or(a, b) => self.value[a as usize] | self.value[b as usize],
                Gate::Xor(a, b) => self.value[a as usize] ^ self.value[b as usize],
                Gate::Mux { sel, lo, hi } => {
                    if self.value[sel as usize] {
                        self.value[hi as usize]
                    } else {
                        self.value[lo as usize]
                    }
                }
            };
            if self.simulations > 0 && v != self.value[i] {
                self.toggles[i] += 1;
            }
            self.value[i] = v;
        }
        self.simulations += 1;
    }

    /// The current value of a node (after [`Self::simulate`]).
    pub fn node(&self, id: NodeId) -> bool {
        self.value[id as usize]
    }

    /// Reads a bus as an integer (LSB first).
    pub fn read_bus(&self, bus: &[NodeId]) -> u64 {
        bus.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &id)| acc | (u64::from(self.node(id)) << i))
    }

    /// Gate statistics.
    pub fn gate_counts(&self) -> GateCounts {
        let mut c = GateCounts::default();
        for g in &self.gates {
            match g {
                Gate::Not(_) => c.not += 1,
                Gate::And(..) => c.and += 1,
                Gate::Or(..) => c.or += 1,
                Gate::Xor(..) => c.xor += 1,
                Gate::Mux { .. } => c.mux += 1,
                _ => {}
            }
        }
        c
    }

    /// Area in NAND2 gate equivalents.
    pub fn area_ge(&self) -> f64 {
        self.gates.iter().map(Gate::area_ge).sum()
    }

    /// Total output toggles across all simulations so far (a dynamic-
    /// power proxy: energy ∝ toggles × C·V²).
    pub fn total_toggles(&self) -> u64 {
        self.toggles.iter().sum()
    }

    /// Number of nodes (gate outputs, inputs and constants included).
    pub fn node_count(&self) -> usize {
        self.gates.len()
    }

    /// The gate driving a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: NodeId) -> Gate {
        self.gates[id as usize]
    }

    /// Output toggles of one node across all simulations so far.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn toggles_of(&self, id: NodeId) -> u64 {
        self.toggles[id as usize]
    }

    /// Toggle histogram by gate class, in [`GATE_CLASSES`] order (every
    /// class present, zero included). Input and constant nodes toggle
    /// too but carry no cell, so they are excluded — this histogram is
    /// exactly what the activity energy BOM prices.
    pub fn toggles_by_class(&self) -> Vec<(&'static str, u64)> {
        let mut hist: Vec<(&'static str, u64)> = GATE_CLASSES.iter().map(|&c| (c, 0u64)).collect();
        for (gate, &toggles) in self.gates.iter().zip(&self.toggles) {
            if let Some(class) = gate.class_name() {
                if let Some(slot) = hist.iter_mut().find(|(c, _)| *c == class) {
                    slot.1 += toggles;
                }
            }
        }
        hist
    }

    /// Number of simulations run.
    pub fn simulations(&self) -> u64 {
        self.simulations
    }

    /// Average toggles per simulation (NaN before the second run).
    pub fn toggles_per_simulation(&self) -> f64 {
        if self.simulations <= 1 {
            f64::NAN
        } else {
            self.total_toggles() as f64 / (self.simulations - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gates_evaluate() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let and = n.and(a, b);
        let or = n.or(a, b);
        let xor = n.xor(a, b);
        let na = n.not(a);
        let mux = n.mux(a, b, na);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            n.simulate(&[va, vb]);
            assert_eq!(n.node(and), va & vb);
            assert_eq!(n.node(or), va | vb);
            assert_eq!(n.node(xor), va ^ vb);
            assert_eq!(n.node(na), !va);
            assert_eq!(n.node(mux), if va { !va } else { vb });
        }
    }

    #[test]
    fn buses_read_back() {
        let mut n = Netlist::new();
        let bus = n.input_bus(8);
        let k = n.constant_bus(0xA5, 8);
        n.simulate(&[true, false, true, false, false, true, false, true]);
        assert_eq!(n.read_bus(&bus), 0b1010_0101);
        assert_eq!(n.read_bus(&k), 0xA5);
    }

    #[test]
    fn reductions() {
        let mut n = Netlist::new();
        let bus = n.input_bus(4);
        let any = n.or_reduce(&bus);
        let all = n.and_reduce(&bus);
        n.simulate(&[true, false, false, false]);
        assert!(n.node(any));
        assert!(!n.node(all));
        n.simulate(&[true, true, true, true]);
        assert!(n.node(all));
    }

    #[test]
    fn toggles_count_changes_only() {
        let mut n = Netlist::new();
        let a = n.input();
        let inv = n.not(a);
        n.simulate(&[false]);
        n.simulate(&[false]); // no change
        assert_eq!(n.total_toggles(), 0);
        n.simulate(&[true]); // a toggles, inv toggles
        assert_eq!(n.total_toggles(), 2);
        assert_eq!(n.simulations(), 3);
        let _ = inv;
    }

    #[test]
    fn class_histogram_partitions_logic_toggles() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let x = n.xor(a, b);
        let inv = n.not(x);
        let m = n.mux(a, b, inv);
        n.simulate(&[false, false]);
        n.simulate(&[true, false]);
        n.simulate(&[true, true]);
        let hist = n.toggles_by_class();
        assert_eq!(hist.len(), GATE_CLASSES.len());
        assert_eq!(
            hist.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            GATE_CLASSES
        );
        // The histogram covers logic gates only; inputs toggle but are
        // excluded, so the class sum plus input toggles is the total.
        let logic: u64 = hist.iter().map(|(_, t)| t).sum();
        let inputs = n.toggles_of(a) + n.toggles_of(b);
        assert_eq!(logic + inputs, n.total_toggles());
        let class_of = |c: &str| hist.iter().find(|(k, _)| *k == c).map(|(_, t)| *t);
        assert_eq!(
            class_of("xor"),
            Some(n.toggles_of(x)),
            "xor class holds exactly the xor gate's toggles"
        );
        assert_eq!(class_of("not"), Some(n.toggles_of(inv)));
        assert_eq!(class_of("mux"), Some(n.toggles_of(m)));
        assert_eq!(class_of("and"), Some(0));
    }

    #[test]
    fn gate_counts_and_area() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let x = n.xor(a, b);
        let _ = n.and(x, a);
        let c = n.gate_counts();
        assert_eq!(c.xor, 1);
        assert_eq!(c.and, 1);
        assert_eq!(c.total(), 2);
        assert!((n.area_ge() - 3.5).abs() < 1e-9);
    }
}
