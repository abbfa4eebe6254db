//! The GraphSAGE node classifier (paper Table II).
//!
//! Architecture, matching the paper's layer shapes:
//!
//! ```text
//! input layer   [|f̂|, H]      h0 = ReLU(X · W_in + b)
//! hidden 1      [2H, H]        h1 = ReLU([h0 ‖ mean_N(h0)] · W_1 + b)
//! hidden 2      [2H, H]        h2 = ReLU([h1 ‖ mean_N(h1)] · W_2 + b)
//! output layer  [H, #classes]  logits = h2 · W_out + b
//! ```
//!
//! with mean aggregation, concatenation (the `2H` input widths), ReLU and
//! dropout 0.1 during training. The paper uses `H = 512`; the width is
//! configurable so CI-scale experiments stay fast.

use crate::graph::Csr;
use gnnunlock_neural::{
    relu_backward_inplace, relu_inplace, AdamConfig, AdamState, DropoutMask, Linear, Matrix,
    Workspace,
};

/// Hyperparameters of a [`SageModel`].
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Input feature length `|f̂|`.
    pub feature_len: usize,
    /// Hidden width `H` (paper: 512).
    pub hidden: usize,
    /// Number of output classes (2 or 3).
    pub classes: usize,
    /// Dropout probability during training (paper: 0.1).
    pub dropout: f64,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl ModelConfig {
    /// Paper-shaped config with a custom hidden width.
    pub fn new(feature_len: usize, hidden: usize, classes: usize) -> Self {
        ModelConfig {
            feature_len,
            hidden,
            classes,
            dropout: 0.1,
            seed: 1,
        }
    }

    /// The paper's exact configuration (hidden 512).
    pub fn paper(feature_len: usize, classes: usize) -> Self {
        ModelConfig::new(feature_len, 512, classes)
    }
}

/// Two-layer GraphSAGE with input encoder and linear head.
#[derive(Debug, Clone)]
pub struct SageModel {
    /// Configuration used to build the model.
    pub config: ModelConfig,
    encoder: Linear,
    layer1: Linear,
    layer2: Linear,
    head: Linear,
}

/// Saved activations from [`SageModel::forward`], consumed by
/// [`SageModel::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    x: Matrix,
    h0: Matrix,
    cat1: Matrix,
    h1: Matrix,
    cat2: Matrix,
    h2: Matrix,
    /// Logits, `N x classes`.
    pub logits: Matrix,
    masks: Option<[DropoutMask; 3]>,
}

impl ForwardCache {
    /// Return every buffer this cache owns — activations, the gathered
    /// input, dropout masks — to the workspace pool. The training loop
    /// calls this at the end of each epoch so the next epoch's forward
    /// pass is allocation-free.
    pub fn recycle(self, ws: &mut Workspace) {
        let ForwardCache {
            x,
            h0,
            cat1,
            h1,
            cat2,
            h2,
            logits,
            masks,
        } = self;
        for m in [x, h0, cat1, h1, cat2, h2, logits] {
            ws.recycle(m);
        }
        if let Some(masks) = masks {
            for mask in masks {
                mask.recycle(ws);
            }
        }
    }
}

/// Gradients for every parameter tensor of the model.
#[derive(Debug, Clone)]
pub struct ModelGrads {
    enc_w: Matrix,
    enc_b: Vec<f32>,
    l1_w: Matrix,
    l1_b: Vec<f32>,
    l2_w: Matrix,
    l2_b: Vec<f32>,
    head_w: Matrix,
    head_b: Vec<f32>,
}

impl ModelGrads {
    /// Return every gradient buffer to the workspace pool (the inverse
    /// of [`SageModel::backward_ws`]'s takes, called once the optimizer
    /// step has consumed the gradients).
    pub fn recycle(self, ws: &mut Workspace) {
        let ModelGrads {
            enc_w,
            enc_b,
            l1_w,
            l1_b,
            l2_w,
            l2_b,
            head_w,
            head_b,
        } = self;
        for m in [enc_w, l1_w, l2_w, head_w] {
            ws.recycle(m);
        }
        for b in [enc_b, l1_b, l2_b, head_b] {
            let len = b.len();
            ws.recycle(Matrix::from_vec(1, len, b));
        }
    }
}

/// Adam state for every parameter tensor.
#[derive(Debug, Clone)]
pub struct ModelOptimizer {
    cfg: AdamConfig,
    enc_w: AdamState,
    enc_b: AdamState,
    l1_w: AdamState,
    l1_b: AdamState,
    l2_w: AdamState,
    l2_b: AdamState,
    head_w: AdamState,
    head_b: AdamState,
}

impl ModelOptimizer {
    /// The optimizer's hyperparameters.
    pub fn config(&self) -> AdamConfig {
        self.cfg
    }

    /// The per-tensor Adam states, in a stable order (encoder w/b,
    /// hidden-1 w/b, hidden-2 w/b, head w/b) — for external
    /// serialization (training checkpoints).
    pub fn states(&self) -> [&AdamState; 8] {
        [
            &self.enc_w,
            &self.enc_b,
            &self.l1_w,
            &self.l1_b,
            &self.l2_w,
            &self.l2_b,
            &self.head_w,
            &self.head_b,
        ]
    }

    /// Reassemble an optimizer from [`ModelOptimizer::states`] order —
    /// the inverse used when restoring a training checkpoint.
    pub fn from_states(cfg: AdamConfig, states: [AdamState; 8]) -> Self {
        let [enc_w, enc_b, l1_w, l1_b, l2_w, l2_b, head_w, head_b] = states;
        ModelOptimizer {
            cfg,
            enc_w,
            enc_b,
            l1_w,
            l1_b,
            l2_w,
            l2_b,
            head_w,
            head_b,
        }
    }
}

impl SageModel {
    /// Build a model with He-initialized weights.
    pub fn new(config: ModelConfig) -> Self {
        let h = config.hidden;
        SageModel {
            encoder: Linear::new(config.feature_len, h, config.seed.wrapping_add(11)),
            layer1: Linear::new(2 * h, h, config.seed.wrapping_add(22)),
            layer2: Linear::new(2 * h, h, config.seed.wrapping_add(33)),
            head: Linear::new(h, config.classes, config.seed.wrapping_add(44)),
            config,
        }
    }

    /// The model's four parameter layers, in forward order: encoder,
    /// hidden 1, hidden 2, head. Together with [`SageModel::from_parts`]
    /// this lets trained models round-trip through an external
    /// serialization format (the campaign persistence codec).
    pub fn parts(&self) -> [&Linear; 4] {
        [&self.encoder, &self.layer1, &self.layer2, &self.head]
    }

    /// Reassemble a model from its configuration and parameter layers
    /// (the inverse of [`SageModel::parts`]).
    ///
    /// # Panics
    ///
    /// Panics if the layer shapes do not match `config` — a corrupt or
    /// mismatched serialization, never a runtime condition.
    pub fn from_parts(
        config: ModelConfig,
        encoder: Linear,
        layer1: Linear,
        layer2: Linear,
        head: Linear,
    ) -> Self {
        let h = config.hidden;
        assert_eq!(
            (encoder.in_dim(), encoder.out_dim()),
            (config.feature_len, h),
            "encoder shape mismatch"
        );
        assert_eq!((layer1.in_dim(), layer1.out_dim()), (2 * h, h));
        assert_eq!((layer2.in_dim(), layer2.out_dim()), (2 * h, h));
        assert_eq!((head.in_dim(), head.out_dim()), (h, config.classes));
        SageModel {
            encoder,
            layer1,
            layer2,
            head,
            config,
        }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.encoder.num_params()
            + self.layer1.num_params()
            + self.layer2.num_params()
            + self.head.num_params()
    }

    /// Forward pass on a graph with features `x`. When `dropout_seed` is
    /// `Some`, dropout masks are sampled and applied (training mode).
    ///
    /// Allocating convenience around [`SageModel::forward_ws`].
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the config.
    pub fn forward(&self, adj: &Csr, x: &Matrix, dropout_seed: Option<u64>) -> ForwardCache {
        self.forward_ws(adj, x.clone(), dropout_seed, &mut Workspace::new())
    }

    /// [`SageModel::forward`] with every temporary taken from `ws`.
    /// Takes ownership of `x` (it is saved in the cache for the backward
    /// pass and returned to the pool by [`ForwardCache::recycle`]).
    /// Bit-identical to the allocating path; allocation-free once the
    /// workspace is warm. Every product, the encoder's included, runs
    /// on the dense tile: the features are gate-class histograms and
    /// fan-in/fan-out counts, about 55% nonzero on Bench8 and 23% on
    /// LPE65, too dense for a zero-skipping kernel to pay.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the config.
    pub fn forward_ws(
        &self,
        adj: &Csr,
        x: Matrix,
        dropout_seed: Option<u64>,
        ws: &mut Workspace,
    ) -> ForwardCache {
        let n = x.rows();
        let h = self.config.hidden;
        let mut h0 = self.encoder.forward_ws(&x, ws);
        relu_inplace(&mut h0);
        let masks = dropout_seed.map(|seed| {
            let seeds = [seed, seed ^ 0x9e37, seed ^ 0x79b9];
            DropoutMask::sample_streams(n, h, self.config.dropout, seeds, ws)
        });
        if let Some(m) = &masks {
            m[0].apply(&mut h0);
        }
        let mut agg1 = ws.take(n, h);
        adj.mean_aggregate_into(&h0, &mut agg1);
        let mut cat1 = ws.take(n, 2 * h);
        h0.hconcat_into(&agg1, &mut cat1);
        ws.recycle(agg1);
        let mut h1 = self.layer1.forward_ws(&cat1, ws);
        relu_inplace(&mut h1);
        if let Some(m) = &masks {
            m[1].apply(&mut h1);
        }
        let mut agg2 = ws.take(n, h);
        adj.mean_aggregate_into(&h1, &mut agg2);
        let mut cat2 = ws.take(n, 2 * h);
        h1.hconcat_into(&agg2, &mut cat2);
        ws.recycle(agg2);
        let mut h2 = self.layer2.forward_ws(&cat2, ws);
        relu_inplace(&mut h2);
        if let Some(m) = &masks {
            m[2].apply(&mut h2);
        }
        let logits = self.head.forward_ws(&h2, ws);
        ForwardCache {
            x,
            h0,
            cat1,
            h1,
            cat2,
            h2,
            logits,
            masks,
        }
    }

    /// Backward pass from `grad_logits`; returns gradients for all
    /// parameters.
    ///
    /// Allocating convenience around [`SageModel::backward_ws`].
    pub fn backward(&self, adj: &Csr, cache: &ForwardCache, grad_logits: &Matrix) -> ModelGrads {
        self.backward_ws(adj, cache, grad_logits, &mut Workspace::new())
    }

    /// [`SageModel::backward`] with every temporary taken from (and
    /// every intermediate returned to) `ws`. Recycle the returned
    /// gradients with [`ModelGrads::recycle`] once applied.
    pub fn backward_ws(
        &self,
        adj: &Csr,
        cache: &ForwardCache,
        grad_logits: &Matrix,
        ws: &mut Workspace,
    ) -> ModelGrads {
        let n = grad_logits.rows();
        let h = self.config.hidden;
        let head_g = self.head.backward_ws(&cache.h2, grad_logits, ws);
        let mut g_h2 = head_g.input;
        if let Some(m) = &cache.masks {
            m[2].apply(&mut g_h2);
        }
        relu_backward_inplace(&cache.h2, &mut g_h2);
        let l2_g = self.layer2.backward_ws(&cache.cat2, &g_h2, ws);
        ws.recycle(g_h2);
        let mut g_h1 = ws.take(n, h);
        let mut g_agg2 = ws.take(n, h);
        l2_g.input.hsplit_into(&mut g_h1, &mut g_agg2);
        ws.recycle(l2_g.input);
        let mut agg_back = ws.take(n, h);
        adj.mean_aggregate_backward_into(&g_agg2, &mut agg_back, ws);
        ws.recycle(g_agg2);
        g_h1.add_assign(&agg_back);
        ws.recycle(agg_back);
        if let Some(m) = &cache.masks {
            m[1].apply(&mut g_h1);
        }
        relu_backward_inplace(&cache.h1, &mut g_h1);
        let l1_g = self.layer1.backward_ws(&cache.cat1, &g_h1, ws);
        ws.recycle(g_h1);
        let mut g_h0 = ws.take(n, h);
        let mut g_agg1 = ws.take(n, h);
        l1_g.input.hsplit_into(&mut g_h0, &mut g_agg1);
        ws.recycle(l1_g.input);
        let mut agg_back = ws.take(n, h);
        adj.mean_aggregate_backward_into(&g_agg1, &mut agg_back, ws);
        ws.recycle(g_agg1);
        g_h0.add_assign(&agg_back);
        ws.recycle(agg_back);
        if let Some(m) = &cache.masks {
            m[0].apply(&mut g_h0);
        }
        relu_backward_inplace(&cache.h0, &mut g_h0);
        // Input layer: weight/bias gradients only — the historical path
        // also computed (and discarded) the gradient w.r.t. the raw
        // features, an entire N x feature_len product per epoch.
        let (enc_w, enc_b) = self.encoder.backward_weights_ws(&cache.x, &g_h0, ws);
        ws.recycle(g_h0);
        ModelGrads {
            enc_w,
            enc_b,
            l1_w: l1_g.weight,
            l1_b: l1_g.bias,
            l2_w: l2_g.weight,
            l2_b: l2_g.bias,
            head_w: head_g.weight,
            head_b: head_g.bias,
        }
    }

    /// Pre-size `ws` for a forward + backward pass of up to `rows`
    /// nodes: take (then recycle) every buffer role at its largest
    /// shape, and pre-size the GEMM packing panel for every product the
    /// model performs. After this tour, any epoch of at most `rows`
    /// nodes runs with zero workspace allocation — the training loop
    /// calls it once at construction with the full-graph row count (the
    /// upper bound of every sampled mini-batch and of full-graph
    /// evaluation).
    pub fn warm_workspace(&self, rows: usize, ws: &mut Workspace) {
        let f = self.config.feature_len;
        let h = self.config.hidden;
        let c = self.config.classes;
        // Peak concurrency per shape class, counted over forward +
        // backward. `rows x H`: h0/h1/h2 + three dropout masks held in
        // the cache, plus g_h1/g_agg/agg_back and the aggregation's
        // scaled-gradient scratch = 10 at the first backward
        // aggregation. `rows x 2H`: cat1/cat2 plus one layer input
        // gradient = 3. Pool buffers are retained for the state's
        // lifetime, so keep the margin small (the reuse tests catch an
        // undercount as a nonzero steady-state allocation).
        let mut shapes: Vec<(usize, usize)> = vec![(rows, f); 2];
        shapes.extend(std::iter::repeat_n((rows, h), 11));
        shapes.extend(std::iter::repeat_n((rows, 2 * h), 4));
        shapes.extend(std::iter::repeat_n((rows, c), 3));
        // Weight and bias gradients.
        shapes.extend_from_slice(&[(f, h), (2 * h, h), (2 * h, h), (h, c)]);
        shapes.extend_from_slice(&[(1, h), (1, h), (1, h), (1, c)]);
        let held: Vec<Matrix> = shapes.iter().map(|&(r, cc)| ws.take(r, cc)).collect();
        for m in held {
            ws.recycle(m);
        }
        // Packing panels: the forward products against each weight and
        // the backward a·bᵀ products against each weight (the weight
        // gradients, aᵀ·b, read both operands in place and pack nothing).
        ws.warm_pack(2 * h, h);
        ws.warm_pack(h, c);
        ws.warm_pack(h, 2 * h);
        ws.warm_pack(c, h);
        ws.warm_pack(f, h);
    }

    /// Predicted class per node (inference mode, no dropout).
    pub fn predict(&self, adj: &Csr, x: &Matrix) -> Vec<usize> {
        self.predict_ws(adj, x, &mut Workspace::new())
    }

    /// [`SageModel::predict`] with all forward temporaries pooled in
    /// `ws` (the input is staged through the pool too, so repeated
    /// evaluation on the same graph is allocation-free).
    pub fn predict_ws(&self, adj: &Csr, x: &Matrix, ws: &mut Workspace) -> Vec<usize> {
        let mut staged = ws.take(x.rows(), x.cols());
        staged.data_mut().copy_from_slice(x.data());
        let cache = self.forward_ws(adj, staged, None, ws);
        let preds = argmax_rows(&cache.logits);
        cache.recycle(ws);
        preds
    }

    /// Create an Adam optimizer matching this model's tensor shapes.
    pub fn optimizer(&self, cfg: AdamConfig) -> ModelOptimizer {
        ModelOptimizer {
            cfg,
            enc_w: AdamState::new(self.encoder.weight.data().len()),
            enc_b: AdamState::new(self.encoder.bias.len()),
            l1_w: AdamState::new(self.layer1.weight.data().len()),
            l1_b: AdamState::new(self.layer1.bias.len()),
            l2_w: AdamState::new(self.layer2.weight.data().len()),
            l2_b: AdamState::new(self.layer2.bias.len()),
            head_w: AdamState::new(self.head.weight.data().len()),
            head_b: AdamState::new(self.head.bias.len()),
        }
    }

    /// Apply one optimizer step with `grads`.
    pub fn apply(&mut self, opt: &mut ModelOptimizer, grads: &ModelGrads) {
        let cfg = opt.cfg;
        opt.enc_w
            .step(&cfg, self.encoder.weight.data_mut(), grads.enc_w.data());
        opt.enc_b.step(&cfg, &mut self.encoder.bias, &grads.enc_b);
        opt.l1_w
            .step(&cfg, self.layer1.weight.data_mut(), grads.l1_w.data());
        opt.l1_b.step(&cfg, &mut self.layer1.bias, &grads.l1_b);
        opt.l2_w
            .step(&cfg, self.layer2.weight.data_mut(), grads.l2_w.data());
        opt.l2_b.step(&cfg, &mut self.layer2.bias, &grads.l2_b);
        opt.head_w
            .step(&cfg, self.head.weight.data_mut(), grads.head_w.data());
        opt.head_b.step(&cfg, &mut self.head.bias, &grads.head_b);
    }

    /// Layer shape summary, matching the paper's Table II rows.
    pub fn shape_table(&self) -> Vec<(String, [usize; 2])> {
        vec![
            (
                "Input Layer".into(),
                [self.encoder.in_dim(), self.encoder.out_dim()],
            ),
            (
                "Hidden Layer 1".into(),
                [self.layer1.in_dim(), self.layer1.out_dim()],
            ),
            (
                "Hidden Layer 2".into(),
                [self.layer2.in_dim(), self.layer2.out_dim()],
            ),
            (
                "Output Layer".into(),
                [self.head.in_dim(), self.head.out_dim()],
            ),
        ]
    }
}

/// Row-wise argmax.
pub fn argmax_rows(m: &Matrix) -> Vec<usize> {
    (0..m.rows())
        .map(|r| {
            let row = m.row(r);
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_neural::softmax_cross_entropy;

    fn tiny_graph() -> (Csr, Matrix, Vec<usize>) {
        // Two triangles joined by an edge; labels by triangle.
        let adj = Csr::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let mut x = Matrix::zeros(6, 4);
        for v in 0..6 {
            x.set(v, v % 4, 1.0);
            x.set(v, 3, if v < 3 { 1.0 } else { -1.0 });
        }
        let labels = vec![0, 0, 0, 1, 1, 1];
        (adj, x, labels)
    }

    #[test]
    fn shapes_follow_table_ii() {
        let model = SageModel::new(ModelConfig::new(34, 512, 3));
        let t = model.shape_table();
        assert_eq!(t[0].1, [34, 512]);
        assert_eq!(t[1].1, [1024, 512]);
        assert_eq!(t[2].1, [1024, 512]);
        assert_eq!(t[3].1, [512, 3]);
    }

    #[test]
    fn forward_shapes() {
        let (adj, x, _) = tiny_graph();
        let model = SageModel::new(ModelConfig::new(4, 8, 2));
        let cache = model.forward(&adj, &x, None);
        assert_eq!(cache.logits.rows(), 6);
        assert_eq!(cache.logits.cols(), 2);
    }

    /// End-to-end gradient check through aggregation, concat, ReLU and all
    /// four linear layers.
    #[test]
    fn full_model_gradients_match_finite_differences() {
        let (adj, x, labels) = tiny_graph();
        let model = SageModel::new(ModelConfig {
            dropout: 0.0,
            ..ModelConfig::new(4, 5, 2)
        });
        let cache = model.forward(&adj, &x, None);
        let loss = softmax_cross_entropy(&cache.logits, &labels, None, None);
        let grads = model.backward(&adj, &cache, &loss.grad);
        let f = |m: &SageModel| -> f32 {
            let c = m.forward(&adj, &x, None);
            softmax_cross_entropy(&c.logits, &labels, None, None).loss
        };
        let eps = 1e-2;
        // Check a few coordinates in each tensor.
        let mut checks: Vec<(&str, f32, f32)> = Vec::new();
        {
            let mut mp = model.clone();
            let v = mp.encoder.weight.get(1, 2);
            mp.encoder.weight.set(1, 2, v + eps);
            let mut mm = model.clone();
            mm.encoder.weight.set(1, 2, v - eps);
            checks.push((
                "enc_w",
                (f(&mp) - f(&mm)) / (2.0 * eps),
                grads.enc_w.get(1, 2),
            ));
        }
        {
            let mut mp = model.clone();
            let v = mp.layer1.weight.get(7, 3);
            mp.layer1.weight.set(7, 3, v + eps);
            let mut mm = model.clone();
            mm.layer1.weight.set(7, 3, v - eps);
            checks.push((
                "l1_w",
                (f(&mp) - f(&mm)) / (2.0 * eps),
                grads.l1_w.get(7, 3),
            ));
        }
        {
            let mut mp = model.clone();
            let v = mp.layer2.weight.get(2, 4);
            mp.layer2.weight.set(2, 4, v + eps);
            let mut mm = model.clone();
            mm.layer2.weight.set(2, 4, v - eps);
            checks.push((
                "l2_w",
                (f(&mp) - f(&mm)) / (2.0 * eps),
                grads.l2_w.get(2, 4),
            ));
        }
        {
            let mut mp = model.clone();
            let v = mp.head.weight.get(3, 1);
            mp.head.weight.set(3, 1, v + eps);
            let mut mm = model.clone();
            mm.head.weight.set(3, 1, v - eps);
            checks.push((
                "head_w",
                (f(&mp) - f(&mm)) / (2.0 * eps),
                grads.head_w.get(3, 1),
            ));
        }
        {
            let mut mp = model.clone();
            mp.head.bias[0] += eps;
            let mut mm = model.clone();
            mm.head.bias[0] -= eps;
            checks.push(("head_b", (f(&mp) - f(&mm)) / (2.0 * eps), grads.head_b[0]));
        }
        for (name, numeric, analytic) in checks {
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "{name}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Training on the toy graph must fit it perfectly.
    #[test]
    fn can_overfit_tiny_graph() {
        let (adj, x, labels) = tiny_graph();
        let mut model = SageModel::new(ModelConfig {
            dropout: 0.0,
            ..ModelConfig::new(4, 16, 2)
        });
        let mut opt = model.optimizer(AdamConfig::default());
        for _ in 0..120 {
            let cache = model.forward(&adj, &x, None);
            let loss = softmax_cross_entropy(&cache.logits, &labels, None, None);
            let grads = model.backward(&adj, &cache, &loss.grad);
            model.apply(&mut opt, &grads);
        }
        assert_eq!(model.predict(&adj, &x), labels);
    }

    #[test]
    fn dropout_changes_training_forward_only() {
        let (adj, x, _) = tiny_graph();
        let model = SageModel::new(ModelConfig {
            dropout: 0.5,
            ..ModelConfig::new(4, 16, 2)
        });
        let train1 = model.forward(&adj, &x, Some(1));
        let train2 = model.forward(&adj, &x, Some(2));
        let infer1 = model.forward(&adj, &x, None);
        let infer2 = model.forward(&adj, &x, None);
        assert_ne!(train1.logits.data(), train2.logits.data());
        assert_eq!(infer1.logits.data(), infer2.logits.data());
    }
}
