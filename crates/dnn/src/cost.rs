//! Compute and memory cost accounting.
//!
//! The accelerator latency models in `adsim-platform` are driven by the
//! exact FLOP and byte counts produced here, mirroring how the paper
//! sizes its FPGA processing-element arrays and extrapolates its ASIC
//! results "based on the amount of processing units needed" (§5.1).

/// Cost of one layer evaluated at a concrete input shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerCost {
    /// Layer kind name (e.g. `"conv2d"`).
    pub kind: &'static str,
    /// Floating-point operations (1 MAC = 2 FLOPs).
    pub flops: u64,
    /// Learnable parameter count.
    pub params: u64,
    /// Elements produced.
    pub output_elems: u64,
    /// Elements consumed.
    pub input_elems: u64,
}

impl LayerCost {
    /// Bytes of weight traffic, assuming 4-byte (f32) parameters.
    pub(crate) fn weight_bytes(&self) -> u64 {
        self.params * 4
    }

    /// Bytes of activation traffic (read input + write output, f32).
    pub(crate) fn activation_bytes(&self) -> u64 {
        (self.input_elems + self.output_elems) * 4
    }

    /// Total memory traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes() + self.activation_bytes()
    }
}

/// Aggregate cost of a whole network, with the per-layer breakdown.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkCost {
    /// Per-layer costs in execution order.
    pub layers: Vec<LayerCost>,
    /// Sum over all layers (`kind` is `"total"`).
    pub total: LayerCost,
}

impl NetworkCost {
    /// Builds the aggregate from per-layer costs.
    pub(crate) fn from_layers(layers: Vec<LayerCost>) -> Self {
        let mut total = LayerCost { kind: "total", ..Default::default() };
        for l in &layers {
            total.flops += l.flops;
            total.params += l.params;
            total.output_elems += l.output_elems;
            total.input_elems += l.input_elems;
        }
        Self { layers, total }
    }

    /// Fraction of FLOPs spent in layers for which `pred` holds; used
    /// to regenerate the paper's Fig. 7 cycle breakdown (DNN vs other).
    pub fn flop_fraction(&self, pred: impl Fn(&LayerCost) -> bool) -> f64 {
        if self.total.flops == 0 {
            return 0.0;
        }
        let matched: u64 = self.layers.iter().filter(|l| pred(l)).map(|l| l.flops).sum();
        matched as f64 / self.total.flops as f64
    }

    /// Giga-FLOPs of the whole network.
    pub fn gflops(&self) -> f64 {
        self.total.flops as f64 / 1e9
    }
}

impl std::fmt::Display for NetworkCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<12} {:>14} {:>12} {:>12}", "layer", "flops", "params", "out elems")?;
        for l in &self.layers {
            writeln!(
                f,
                "{:<12} {:>14} {:>12} {:>12}",
                l.kind, l.flops, l.params, l.output_elems
            )?;
        }
        write!(
            f,
            "{:<12} {:>14} {:>12} {:>12}",
            "total", self.total.flops, self.total.params, self.total.output_elems
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LayerCost {
        LayerCost { kind: "conv2d", flops: 1000, params: 25, output_elems: 50, input_elems: 100 }
    }

    #[test]
    fn byte_accounting() {
        let c = sample();
        assert_eq!(c.weight_bytes(), 100);
        assert_eq!(c.activation_bytes(), 600);
        assert_eq!(c.total_bytes(), 700);
    }

    #[test]
    fn network_cost_sums_layers() {
        let net = NetworkCost::from_layers(vec![sample(), sample()]);
        assert_eq!(net.total.flops, 2000);
        assert_eq!(net.total.params, 50);
        assert_eq!(net.gflops(), 2e-6);
    }

    #[test]
    fn flop_fraction_partitions() {
        let mut other = sample();
        other.kind = "maxpool2d";
        other.flops = 3000;
        let net = NetworkCost::from_layers(vec![sample(), other]);
        let conv = net.flop_fraction(|l| l.kind == "conv2d");
        let pool = net.flop_fraction(|l| l.kind == "maxpool2d");
        assert!((conv - 0.25).abs() < 1e-9);
        assert!((conv + pool - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_lists_each_layer() {
        let net = NetworkCost::from_layers(vec![sample()]);
        let text = net.to_string();
        assert!(text.contains("conv2d"));
        assert!(text.contains("total"));
    }
}
