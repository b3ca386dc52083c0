//! The adapted NetShare GAN: LSTM generator with batch generation vs
//! LSTM discriminator, trained adversarially.

use crate::error::NetShareError;
use crate::norm::{StreamBounds, StreamNormalizer};
use cpt_nn::{clip_grad_norm, Adam, Linear, Lstm, ParamId, ParamStore, Session, Tensor, Var};
use cpt_trace::json::{ToJson, Value};
use cpt_trace::{Cmb, Dataset, DeviceType, EventType, Generation, Stream, UeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Architecture and training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetShareConfig {
    /// Cellular generation (event vocabulary).
    pub generation: Generation,
    /// Generator LSTM hidden size.
    pub hidden: usize,
    /// Noise vector width fed to the generator each step.
    pub noise_dim: usize,
    /// Samples emitted per LSTM step — NetShare's batch generation (L4).
    pub batch_gen: usize,
    /// Maximum stream length (padded/truncated to this for the GAN).
    pub max_len: usize,
    /// Discriminator LSTM/MLP hidden size.
    pub d_hidden: usize,
    /// Weight-init seed.
    pub seed: u64,
    /// Epochs over the training streams.
    pub epochs: usize,
    /// Streams per batch.
    pub batch_size: usize,
    /// Generator learning rate.
    pub lr_g: f32,
    /// Discriminator learning rate.
    pub lr_d: f32,
    /// Gumbel-softmax temperature for the categorical fields. Without
    /// Gumbel sampling, real (exact one-hot) and fake (smooth softmax)
    /// tokens are trivially separable and the discriminator wins
    /// immediately — the practical GAN fragility the paper's L5 is about.
    pub gumbel_tau: f32,
    /// Generator updates happen once every `g_every` batches; the critic
    /// updates every batch (WGAN trains the critic more often).
    pub g_every: usize,
    /// Weight-clipping bound for the WGAN critic. NetShare itself uses
    /// Wasserstein-GP; weight clipping is the first-order-autodiff-friendly
    /// variant (DESIGN.md).
    pub weight_clip: f32,
    /// If `Some(n)`, snapshot parameters every `n` epochs.
    pub snapshot_every: Option<usize>,
}

impl NetShareConfig {
    /// CPU-sized default.
    pub fn small() -> Self {
        NetShareConfig {
            generation: Generation::Lte,
            hidden: 48,
            noise_dim: 16,
            batch_gen: 5,
            max_len: 50,
            d_hidden: 48,
            seed: 0,
            epochs: 10,
            batch_size: 32,
            lr_g: 1e-3,
            lr_d: 5e-4,
            gumbel_tau: 0.7,
            g_every: 2,
            weight_clip: 0.05,
            snapshot_every: None,
        }
    }

    /// Builder: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder: sets max stream length.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = max_len;
        self
    }

    fn steps(&self) -> usize {
        self.max_len.div_ceil(self.batch_gen)
    }

    fn sample_dim(&self) -> usize {
        self.generation.num_event_types() + 1 + 2
    }

    /// Raw (pre-activation) generator output width per sample.
    fn raw_dim(&self) -> usize {
        self.generation.num_event_types() + 1 + 2
    }
}

// The form a model file's metadata carries.
cpt_trace::json_struct!(NetShareConfig {
    generation,
    hidden,
    noise_dim,
    batch_gen,
    max_len,
    d_hidden,
    seed,
    epochs,
    batch_size,
    lr_g,
    lr_d,
    gumbel_tau,
    g_every,
    weight_clip,
    snapshot_every,
});

impl Default for NetShareConfig {
    fn default() -> Self {
        NetShareConfig::small()
    }
}

/// Per-epoch GAN losses and timing.
#[derive(Debug, Clone, Default)]
pub struct NetShareTrainReport {
    /// `(epoch, discriminator loss, generator loss, seconds)` per epoch.
    pub epochs: Vec<(usize, f64, f64, f64)>,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Parameter snapshots `(epoch, params)` for checkpoint selection.
    pub snapshots: Vec<(usize, ParamStore)>,
}

/// Per-position Gumbel noise for Gumbel-softmax sampling of the
/// categorical fields during GAN training.
struct GumbelNoise {
    ev: Vec<Tensor>,
    stop: Vec<Tensor>,
}

/// The adapted NetShare model.
#[derive(Debug, Clone)]
pub struct NetShare {
    /// Configuration.
    pub config: NetShareConfig,
    /// All parameters (generator + discriminator).
    pub store: ParamStore,
    g_lstm: Lstm,
    g_out: Linear,
    d_lstm: Lstm,
    d_fc1: Linear,
    d_fc2: Linear,
    g_params: Vec<ParamId>,
    d_params: Vec<ParamId>,
    /// Per-stream (min, max) metadata distribution, fitted at training.
    pub normalizer: Option<StreamNormalizer>,
}

impl NetShare {
    /// Builds a freshly initialized model.
    pub fn new(config: NetShareConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let g_lstm = Lstm::new(
            &mut store,
            "g.lstm",
            config.noise_dim,
            config.hidden,
            &mut rng,
        );
        let g_out = Linear::new(
            &mut store,
            "g.out",
            config.hidden,
            config.batch_gen * config.raw_dim(),
            true,
            &mut rng,
        );
        let g_params = store.ids();
        let before_d = g_params.len();
        let d_lstm = Lstm::new(
            &mut store,
            "d.lstm",
            config.sample_dim(),
            config.d_hidden,
            &mut rng,
        );
        let d_fc1 = Linear::new(
            &mut store,
            "d.fc1",
            config.d_hidden,
            config.d_hidden,
            true,
            &mut rng,
        );
        let d_fc2 = Linear::new(&mut store, "d.fc2", config.d_hidden, 1, true, &mut rng);
        let d_params = store.ids()[before_d..].to_vec();
        NetShare {
            config,
            store,
            g_lstm,
            g_out,
            d_lstm,
            d_fc1,
            d_fc2,
            g_params,
            d_params,
            normalizer: None,
        }
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.store.num_params()
    }

    /// The model's `.cmb` metadata: configuration and the fitted
    /// per-stream bounds. Layer structs are not stored: loading rebuilds
    /// them from the configuration.
    pub fn cmb_meta(&self) -> Value {
        Value::obj([
            ("config", self.config.to_json()),
            ("normalizer", self.normalizer.to_json()),
        ])
    }

    /// Rebuilds a model from its [`NetShare::cmb_meta`] and the tensors of
    /// `cmb` named `prefix` + parameter name: [`NetShare::new`], then every
    /// weight copied in by name with its shape checked, finite values only.
    pub fn from_cmb(meta: &Value, cmb: &Cmb, prefix: &str) -> Result<Self, String> {
        let config: NetShareConfig = meta.field("config").map_err(|e| e.to_string())?;
        let normalizer: Option<StreamNormalizer> =
            meta.field("normalizer").map_err(|e| e.to_string())?;
        let stored_params = cpt_nn::serialize::section_params(cmb, prefix);
        // Refuse what `new` would panic on, or a config asking for more
        // weights than the file holds (its LSTM and linear matrices).
        let c = &config;
        let (h, dh) = (c.hidden as u128, c.d_hidden as u128);
        let at_least = 4 * h * (c.noise_dim as u128 + h)
            + h * c.batch_gen as u128 * c.raw_dim() as u128
            + 4 * dh * (c.sample_dim() as u128 + dh)
            + dh * dh;
        if c.batch_gen == 0 || at_least > stored_params as u128 {
            return Err(format!(
                "config (batch_gen {}, {at_least} weights) does not fit the {stored_params} stored weights",
                c.batch_gen,
            ));
        }
        let mut model = NetShare::new(config);
        cpt_nn::serialize::load_section_into(&mut model.store, cmb, prefix)
            .map_err(|e| e.to_string())?;
        model.normalizer = normalizer;
        Ok(model)
    }

    /// Runs the generator inside `sess`, producing `max_len` soft tokens of
    /// shape `[B, sample_dim]` each. `noise` holds `steps()` tensors of
    /// shape `[B, noise_dim]`. When `gumbel` is provided (training), the
    /// categorical fields use Gumbel-softmax sampling so fake tokens are
    /// near-one-hot like the real ones.
    fn generator_forward(
        &self,
        sess: &mut Session<'_>,
        noise: &[Tensor],
        gumbel: Option<&GumbelNoise>,
        b: usize,
    ) -> Vec<Var> {
        let e = self.config.generation.num_event_types();
        let raw = self.config.raw_dim();
        let inv_tau = 1.0 / self.config.gumbel_tau.max(1e-3);
        let (mut h, mut c) = self.g_lstm.zero_state(sess, b);
        let mut tokens = Vec::with_capacity(self.config.max_len);
        for z in noise {
            let x = sess.input(z.clone());
            let (nh, nc) = self.g_lstm.step(sess, x, h, c);
            h = nh;
            c = nc;
            let out = self.g_out.forward(sess, h); // [B, batch_gen * raw]
            for j in 0..self.config.batch_gen {
                let t = tokens.len();
                if t >= self.config.max_len {
                    break;
                }
                let mut ev_logits = sess.graph.slice_cols(out, j * raw, e);
                let mut stop_logits = sess.graph.slice_cols(out, j * raw + e + 1, 2);
                if let Some(g) = gumbel {
                    let gv = sess.input(g.ev[t].clone());
                    ev_logits = sess.graph.add(ev_logits, gv);
                    ev_logits = sess.graph.scale(ev_logits, inv_tau);
                    let gs = sess.input(g.stop[t].clone());
                    stop_logits = sess.graph.add(stop_logits, gs);
                    stop_logits = sess.graph.scale(stop_logits, inv_tau);
                }
                let ev = sess.graph.softmax_lastdim(ev_logits);
                let iat_pre = sess.graph.slice_cols(out, j * raw + e, 1);
                let iat = sess.graph.sigmoid(iat_pre);
                let stop = sess.graph.softmax_lastdim(stop_logits);
                tokens.push(sess.graph.concat_cols(&[ev, iat, stop]));
            }
        }
        tokens
    }

    /// Clamps every critic weight to `[-c, c]` (WGAN weight clipping).
    fn clip_critic_weights(&mut self, c: f32) {
        for id in &self.d_params {
            for w in &mut self.store.value_mut(*id).data {
                *w = w.clamp(-c, c);
            }
        }
    }

    /// Runs the discriminator over a token sequence, returning `[B]`
    /// logits.
    fn discriminator_forward(&self, sess: &mut Session<'_>, tokens: &[Var], b: usize) -> Var {
        let (mut h, mut c) = self.d_lstm.zero_state(sess, b);
        for t in tokens {
            let (nh, nc) = self.d_lstm.step(sess, *t, h, c);
            h = nh;
            c = nc;
        }
        let f = self.d_fc1.forward(sess, h);
        let f = sess.graph.relu(f);
        let logit = self.d_fc2.forward(sess, f); // [B,1]
        sess.graph.reshape(logit, &[b])
    }

    /// Encodes real streams as fixed-length padded token sequences with
    /// per-stream min/max interarrival normalization.
    fn encode_real(&self, streams: &[&Stream]) -> Vec<Tensor> {
        let e = self.config.generation.num_event_types();
        let d = self.config.sample_dim();
        let t_max = self.config.max_len;
        let b = streams.len();
        let mut per_t: Vec<Tensor> = (0..t_max).map(|_| Tensor::zeros(&[b, d])).collect();
        for (bi, stream) in streams.iter().enumerate() {
            let bounds = StreamBounds::of(stream);
            let iats = stream.interarrivals();
            let n = stream.len().min(t_max);
            for t in 0..n {
                let tok = &mut per_t[t];
                let ev = stream.events[t].event_type;
                tok.data[bi * d + ev.index()] = 1.0;
                tok.data[bi * d + e] = bounds.normalize(iats[t]);
                let stop = t + 1 == n;
                tok.data[bi * d + e + 1 + usize::from(stop)] = 1.0;
            }
        }
        per_t
    }

    fn sample_noise(&self, b: usize, rng: &mut StdRng) -> Vec<Tensor> {
        (0..self.config.steps())
            .map(|_| Tensor::randn(&[b, self.config.noise_dim], 1.0, rng))
            .collect()
    }

    fn sample_gumbel(&self, b: usize, rng: &mut StdRng) -> GumbelNoise {
        let e = self.config.generation.num_event_types();
        let draw = |shape: &[usize], rng: &mut StdRng| {
            let n: usize = shape.iter().product();
            let data = (0..n)
                .map(|_| {
                    let u: f32 = rng.gen_range(1e-9f32..1.0);
                    -(-(u.ln())).ln()
                })
                .collect();
            Tensor::new(data, shape.to_vec())
        };
        GumbelNoise {
            ev: (0..self.config.max_len)
                .map(|_| draw(&[b, e], rng))
                .collect(),
            stop: (0..self.config.max_len)
                .map(|_| draw(&[b, 2], rng))
                .collect(),
        }
    }

    /// Trains the GAN on `dataset`, fitting the normalizer and recording
    /// per-epoch losses.
    pub fn train(&mut self, dataset: &Dataset) -> Result<NetShareTrainReport, NetShareError> {
        let trainable: Vec<usize> = dataset
            .streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.len() >= 2)
            .map(|(i, _)| i)
            .collect();
        if trainable.is_empty() {
            return Err(NetShareError::NoTrainableStreams);
        }
        self.normalizer = Some(StreamNormalizer::fit(dataset));
        let cfg = self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
        let mut adam_g = Adam::new(&self.store, cfg.lr_g);
        let mut adam_d = Adam::new(&self.store, cfg.lr_d);
        let mut report = NetShareTrainReport::default();
        let start = Instant::now();

        for epoch in 0..cfg.epochs {
            let epoch_start = Instant::now();
            let mut order = trainable.clone();
            order.shuffle(&mut rng);
            let mut d_loss_sum = 0.0f64;
            let mut g_loss_sum = 0.0f64;
            let mut batches = 0usize;
            for (batch_idx, chunk) in order.chunks(cfg.batch_size).enumerate() {
                let streams: Vec<&Stream> = chunk.iter().map(|i| &dataset.streams[*i]).collect();
                let b = streams.len();
                let real = self.encode_real(&streams);

                // --- Discriminator / critic step (every batch) ---
                {
                    let noise = self.sample_noise(b, &mut rng);
                    let gumbel = self.sample_gumbel(b, &mut rng);
                    let mut sess = Session::new(&self.store);
                    let fake = self.generator_forward(&mut sess, &noise, Some(&gumbel), b);
                    let real_vars: Vec<Var> = real.iter().map(|t| sess.input(t.clone())).collect();
                    let d_real = self.discriminator_forward(&mut sess, &real_vars, b);
                    let d_fake = self.discriminator_forward(&mut sess, &fake, b);
                    let loss = critic_loss(&mut sess, d_real, d_fake);
                    d_loss_sum += sess.graph.value(loss).item() as f64;
                    sess.backward(loss);
                    let grads = sess.grads();
                    self.store.accumulate_grads(&grads);
                    clip_grad_norm(&mut self.store, 5.0);
                    adam_d.step_subset(&mut self.store, &self.d_params);
                    self.store.zero_grads();
                    self.clip_critic_weights(cfg.weight_clip);
                }

                // --- Generator step (once every g_every batches) ---
                if batch_idx % cfg.g_every.max(1) == 0 {
                    let noise = self.sample_noise(b, &mut rng);
                    let gumbel = self.sample_gumbel(b, &mut rng);
                    let mut sess = Session::new(&self.store);
                    let fake = self.generator_forward(&mut sess, &noise, Some(&gumbel), b);
                    let d_fake = self.discriminator_forward(&mut sess, &fake, b);
                    // Generator maximizes E[D(fake)].
                    let m_fake = sess.graph.mean_all(d_fake);
                    let loss = sess.graph.scale(m_fake, -1.0);
                    g_loss_sum += sess.graph.value(loss).item() as f64;
                    sess.backward(loss);
                    let grads = sess.grads();
                    self.store.accumulate_grads(&grads);
                    clip_grad_norm(&mut self.store, 5.0);
                    adam_g.step_subset(&mut self.store, &self.g_params);
                    self.store.zero_grads();
                }
                batches += 1;
            }
            report.epochs.push((
                epoch,
                d_loss_sum / batches.max(1) as f64,
                g_loss_sum / batches.max(1) as f64,
                epoch_start.elapsed().as_secs_f64(),
            ));
            if let Some(every) = cfg.snapshot_every {
                if (epoch + 1) % every == 0 {
                    report.snapshots.push((epoch, self.store.clone()));
                }
            }
        }
        report.total_seconds = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Continues adversarial training on `new_data` for `epochs` epochs —
    /// the transfer-learning mode measured by Tables 4/9 (GANs benefit far
    /// less from this than supervised transformers).
    pub fn fine_tune(
        &self,
        new_data: &Dataset,
        epochs: usize,
    ) -> Result<(NetShare, NetShareTrainReport), NetShareError> {
        let mut model = self.clone();
        model.config.epochs = epochs;
        // Continue from current weights; keep the seed distinct so batch
        // order differs from the base run.
        model.config.seed = self.config.seed.wrapping_add(7919);
        let report = model.train(new_data)?;
        Ok((model, report))
    }

    /// Synthesizes `n` streams.
    pub fn generate(
        &self,
        n: usize,
        device: DeviceType,
        seed: u64,
    ) -> Result<Dataset, NetShareError> {
        let normalizer = self.normalizer.as_ref().ok_or(NetShareError::Untrained)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let e = self.config.generation.num_event_types();
        let d = self.config.sample_dim();
        let mut streams = Vec::with_capacity(n);
        let mut next_id = 0u64;
        let batch = 64usize;
        let mut remaining = n;
        while remaining > 0 {
            let b = remaining.min(batch);
            remaining -= b;
            let noise = self.sample_noise(b, &mut rng);
            let mut sess = Session::new(&self.store);
            let tokens = self.generator_forward(&mut sess, &noise, None, b);
            let token_values: Vec<Tensor> = tokens
                .iter()
                .map(|t| sess.graph.value(*t).clone())
                .collect();
            for bi in 0..b {
                let bounds = normalizer.sample(&mut rng);
                let mut events = Vec::new();
                let mut iats = Vec::new();
                for tok in &token_values {
                    let row = &tok.data[bi * d..(bi + 1) * d];
                    let ev_idx = sample_probs(&row[..e], &mut rng);
                    events.push(EventType::from_index(ev_idx).ok_or(
                        NetShareError::BadEventIndex {
                            index: ev_idx,
                            vocab: e,
                        },
                    )?);
                    iats.push(bounds.denormalize(row[e]));
                    let stop = sample_probs(&row[e + 1..e + 3], &mut rng) == 1;
                    if stop {
                        break;
                    }
                }
                // First token's interarrival is a start offset; zero it to
                // match the trace convention.
                if let Some(first) = iats.first_mut() {
                    *first = 0.0;
                }
                let id = UeId(next_id);
                next_id += 1;
                streams.push(Stream::from_interarrivals(id, device, &events, &iats));
            }
        }
        Ok(Dataset::with_generation(self.config.generation, streams))
    }
}

/// The Wasserstein critic's loss, `E[D(fake)] − E[D(real)]`: the critic
/// maximizes `E[D(real)] − E[D(fake)]`.
fn critic_loss(sess: &mut Session<'_>, d_real: Var, d_fake: Var) -> Var {
    let m_real = sess.graph.mean_all(d_real);
    let m_fake = sess.graph.mean_all(d_fake);
    sess.graph.weighted_sum(&[(m_fake, 1.0), (m_real, -1.0)])
}

fn sample_probs(probs: &[f32], rng: &mut impl Rng) -> usize {
    let total: f32 = probs.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut target = rng.gen::<f32>() * total;
    for (i, p) in probs.iter().enumerate() {
        if target < *p {
            return i;
        }
        target -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_synth::{generate_device, SynthConfig};

    fn tiny_config() -> NetShareConfig {
        NetShareConfig {
            hidden: 16,
            noise_dim: 8,
            batch_gen: 4,
            max_len: 16,
            d_hidden: 16,
            epochs: 2,
            batch_size: 16,
            ..NetShareConfig::small()
        }
    }

    fn small_data() -> Dataset {
        generate_device(&SynthConfig::new(0, 31), DeviceType::Phone, 60)
    }

    #[test]
    fn parameters_partition_into_g_and_d() {
        let m = NetShare::new(tiny_config());
        let total = m.store.num_tensors();
        assert_eq!(m.g_params.len() + m.d_params.len(), total);
        // Names are consistent with the partition.
        for id in &m.g_params {
            assert!(m.store.name(*id).starts_with("g."));
        }
        for id in &m.d_params {
            assert!(m.store.name(*id).starts_with("d."));
        }
    }

    #[test]
    fn training_runs_and_losses_are_finite() {
        let mut m = NetShare::new(tiny_config());
        let report = m.train(&small_data()).expect("train");
        assert_eq!(report.epochs.len(), 2);
        for (_, dl, gl, _) in &report.epochs {
            // Wasserstein losses are signed; only finiteness is invariant.
            assert!(dl.is_finite() && gl.is_finite(), "non-finite GAN loss");
        }
        assert!(m.normalizer.is_some());
    }

    #[test]
    fn generation_shapes_and_determinism() {
        let mut m = NetShare::new(tiny_config());
        m.train(&small_data()).expect("train");
        let a = m.generate(12, DeviceType::Phone, 5).expect("generate");
        assert_eq!(a.num_streams(), 12);
        for s in &a.streams {
            assert!(!s.is_empty() && s.len() <= 16);
            assert!(s
                .events
                .windows(2)
                .all(|w| w[0].timestamp <= w[1].timestamp));
        }
        assert_eq!(a, m.generate(12, DeviceType::Phone, 5).expect("generate"));
        assert_ne!(a, m.generate(12, DeviceType::Phone, 6).expect("generate"));
    }

    #[test]
    fn cmb_roundtrip_generates_identically_and_rejects_damage() {
        let mut m = NetShare::new(tiny_config());
        m.train(&small_data()).expect("train");
        let mut cmb = Cmb::new(Value::obj([("ns", m.cmb_meta())]));
        cpt_nn::serialize::push_store(&mut cmb, "ns/", &m.store);
        let cmb = Cmb::from_bytes(&cmb.to_bytes()).expect("verifies");
        let meta = cmb.meta.get("ns").expect("meta");
        let back = NetShare::from_cmb(meta, &cmb, "ns/").expect("loads");
        assert_eq!(back.normalizer, m.normalizer);
        assert_eq!(
            back.generate(12, DeviceType::Phone, 5).expect("generate"),
            m.generate(12, DeviceType::Phone, 5).expect("generate")
        );
        let mut nan = cmb.clone();
        nan.tensors[0].data[0] = f32::NAN;
        assert!(NetShare::from_cmb(meta, &nan, "ns/").is_err());
        let mut zero = cmb.meta.clone();
        if let Value::Obj(f) = &mut zero {
            f[0].1 = NetShare {
                config: NetShareConfig {
                    batch_gen: 0,
                    ..m.config
                },
                ..m.clone()
            }
            .cmb_meta();
        }
        assert!(NetShare::from_cmb(zero.get("ns").expect("meta"), &cmb, "ns/").is_err());
    }

    #[test]
    fn discriminator_step_moves_only_d_params() {
        let m = NetShare::new(tiny_config());
        let data = small_data();
        let model = m.clone();
        // One manual D step.
        let streams: Vec<&Stream> = data.streams.iter().take(4).collect();
        let real = model.encode_real(&streams);
        let mut rng = StdRng::seed_from_u64(0);
        let noise = model.sample_noise(4, &mut rng);
        let mut sess = Session::new(&model.store);
        let gumbel = model.sample_gumbel(4, &mut rng);
        let fake = model.generator_forward(&mut sess, &noise, Some(&gumbel), 4);
        let real_vars: Vec<Var> = real.iter().map(|t| sess.input(t.clone())).collect();
        let d_real = model.discriminator_forward(&mut sess, &real_vars, 4);
        let d_fake = model.discriminator_forward(&mut sess, &fake, 4);
        let loss = critic_loss(&mut sess, d_real, d_fake);
        sess.backward(loss);
        let grads = sess.grads();
        let mut store = model.store.clone();
        store.accumulate_grads(&grads);
        let mut adam = Adam::new(&store, 1e-2);
        adam.step_subset(&mut store, &model.d_params);
        for id in &model.g_params {
            assert_eq!(
                store.value(*id).data,
                model.store.value(*id).data,
                "generator param {} moved on a D step",
                store.name(*id)
            );
        }
        // At least one D param moved.
        assert!(model
            .d_params
            .iter()
            .any(|id| store.value(*id).data != model.store.value(*id).data));
    }

    #[test]
    fn untrained_generation_is_a_typed_error() {
        let m = NetShare::new(tiny_config());
        assert_eq!(
            m.generate(1, DeviceType::Phone, 0).unwrap_err(),
            NetShareError::Untrained
        );
    }

    #[test]
    fn empty_dataset_is_a_typed_error() {
        let mut m = NetShare::new(tiny_config());
        assert_eq!(
            m.train(&Dataset::default()).unwrap_err(),
            NetShareError::NoTrainableStreams
        );
        // The failed fit must not leave a half-trained normalizer behind.
        assert!(m.normalizer.is_none());
    }

    #[test]
    fn fine_tune_returns_new_model() {
        let mut m = NetShare::new(tiny_config());
        m.train(&small_data()).expect("train");
        let other = generate_device(&SynthConfig::new(0, 32), DeviceType::Phone, 40);
        let (ft, report) = m.fine_tune(&other, 1).expect("fine-tune");
        assert_eq!(report.epochs.len(), 1);
        // Base model unchanged.
        let id = m.store.ids()[0];
        assert_ne!(ft.store.value(id).data, m.store.value(id).data);
    }
}
