//! Quantized DNN inference workloads (Table 5, Figures 2/12/14/15).
//!
//! The four image-classification networks the paper evaluates are defined
//! structurally (layer geometry, MACs, parameters); weights are seeded
//! pseudo-random 4-bit values — every evaluated quantity (time, energy,
//! communication) depends only on structure, not on trained weights.
//! Accuracy columns of Table 5 are carried as published constants.
//!
//! The client-aided execution plan walks the layer graph: linear layers run
//! encrypted on the server; at every non-linear boundary (activation /
//! pooling) intermediate ciphertexts travel to the client, are decrypted,
//! processed, repacked with rotational redundancy, and re-encrypted.
//! [`InferencePlan`] counts those ciphertexts, bytes, and crypto operations —
//! the inputs to the CHOCO-TACO cost composition.
//!
//! A real encrypted convolution layer ([`run_encrypted_conv_layer`])
//! exercises the full stack (packing → encryption → server conv → channel
//! sum → decryption → unpacking) against a plaintext reference. Its packing
//! is Gazelle's channel-diagonal one ([`ConvPacking`]): the client repeats
//! an input group's channels across the whole slot row, the server
//! convolves once per input ciphertext — every output channel rides the
//! same hoisted tap rotations — and sums channels with the FC's hybrid
//! split, so a layer's output channels come back packed, `row / stride` to
//! a download ([`ResumableConvLayer`]) — the count [`client_aided_plan`]
//! plans with, up to each map's power-of-two stride. The server half is a
//! compiled program ([`ConvPacking::program`]) the session keeps with its
//! encoded weights, so only a layer's first inference encodes them; it is
//! checked against the plaintext reference [`conv2d_plain_circular`].

use crate::resumable::{
    bad_progress, finish_progress, progress_cursor, put_ct, put_maps, read_ct, read_maps,
    ResumableWorkload,
};
use choco::compiler::{compile, CompiledProgram, CompilerOptions, NodeId, Program};
use choco::linalg::matvec_hybrid_shape;
use choco::rotation::RedundantLayout;
use choco::stacking::StackedLayout;
use choco::transport::{Session, TransportError};
use choco_he::bfv::{BfvContext, Ciphertext};
use choco_he::params::{HeParams, SchemeType};
use choco_he::{Bfv, HeError, HeScheme};
use std::collections::HashMap;

/// One layer of a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// 2-D convolution (`same` padding when `padded`, else `valid`).
    Conv {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Square filter size.
        filter: usize,
        /// Stride.
        stride: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Whether same-padding is applied.
        padded: bool,
    },
    /// Fully connected layer.
    Fc {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Element-wise activation over `elements` values (client-side).
    Activation {
        /// Number of activations.
        elements: usize,
    },
    /// Pooling: `channels` maps of `in_h × in_w` reduced by `window`
    /// (client-side).
    Pool {
        /// Channels.
        channels: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Pooling window (and stride).
        window: usize,
    },
}

impl Layer {
    /// Output spatial size of a conv layer.
    fn conv_out_hw(&self) -> Option<(usize, usize)> {
        match *self {
            Layer::Conv {
                filter,
                stride,
                in_h,
                in_w,
                padded,
                ..
            } => {
                let (h, w) = if padded {
                    (in_h, in_w)
                } else {
                    (in_h - filter + 1, in_w - filter + 1)
                };
                Some((h.div_ceil(stride), w.div_ceil(stride)))
            }
            _ => None,
        }
    }

    /// Multiply-accumulate operations this layer performs.
    pub fn macs(&self) -> u64 {
        match *self {
            Layer::Conv {
                in_ch,
                out_ch,
                filter,
                ..
            } => self.conv_out_hw().map_or(0, |(oh, ow)| {
                (oh * ow * out_ch * in_ch * filter * filter) as u64
            }),
            Layer::Fc {
                in_features,
                out_features,
            } => (in_features * out_features) as u64,
            _ => 0,
        }
    }

    /// Trainable parameters.
    pub fn params(&self) -> u64 {
        match *self {
            Layer::Conv {
                in_ch,
                out_ch,
                filter,
                ..
            } => (out_ch * in_ch * filter * filter + out_ch) as u64,
            Layer::Fc {
                in_features,
                out_features,
            } => (in_features * out_features + out_features) as u64,
            _ => 0,
        }
    }

    /// Number of output elements.
    pub fn output_elements(&self) -> usize {
        match *self {
            Layer::Conv { out_ch, .. } => self.conv_out_hw().map_or(0, |(oh, ow)| out_ch * oh * ow),
            Layer::Fc { out_features, .. } => out_features,
            Layer::Activation { elements } => elements,
            Layer::Pool {
                channels,
                in_h,
                in_w,
                window,
            } => channels * (in_h / window) * (in_w / window),
        }
    }

    /// Whether the layer runs encrypted on the server.
    pub fn is_linear(&self) -> bool {
        matches!(self, Layer::Conv { .. } | Layer::Fc { .. })
    }
}

/// Published Table 5 accuracy triple (float, 8-bit, 4-bit), percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Floating point accuracy.
    pub float: f64,
    /// 8-bit quantized accuracy.
    pub int8: f64,
    /// 4-bit quantized accuracy.
    pub int4: f64,
}

/// A DNN workload.
#[derive(Debug, Clone)]
pub struct Network {
    /// Display name.
    pub name: &'static str,
    /// Dataset label (MNIST / CIFAR-10).
    pub dataset: &'static str,
    /// Layers in order.
    pub layers: Vec<Layer>,
    /// Published accuracy (Table 5).
    pub accuracy: Accuracy,
}

impl Network {
    /// Total MACs across linear layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(Layer::params).sum()
    }

    /// Model size in bytes at `bits_per_weight` precision.
    pub fn model_bytes(&self, bits_per_weight: u32) -> u64 {
        self.total_params() * bits_per_weight as u64 / 8
    }

    /// Layer counts `(conv, fc, activation, pool)` — Table 5's shape columns.
    pub fn layer_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for l in &self.layers {
            match l {
                Layer::Conv { .. } => c.0 += 1,
                Layer::Fc { .. } => c.1 += 1,
                Layer::Activation { .. } => c.2 += 1,
                Layer::Pool { .. } => c.3 += 1,
            }
        }
        c
    }

    /// LeNet-5-Small (mlpack digit recognizer; MNIST; 0.24 M MACs).
    pub fn lenet_small() -> Network {
        Network {
            name: "LeNetSm",
            dataset: "MNIST",
            layers: vec![
                Layer::Conv {
                    in_ch: 1,
                    out_ch: 6,
                    filter: 5,
                    stride: 1,
                    in_h: 28,
                    in_w: 28,
                    padded: false,
                },
                Layer::Activation {
                    elements: 6 * 24 * 24,
                },
                Layer::Pool {
                    channels: 6,
                    in_h: 24,
                    in_w: 24,
                    window: 2,
                },
                Layer::Conv {
                    in_ch: 6,
                    out_ch: 16,
                    filter: 5,
                    stride: 1,
                    in_h: 12,
                    in_w: 12,
                    padded: false,
                },
                Layer::Activation {
                    elements: 16 * 8 * 8,
                },
                Layer::Pool {
                    channels: 16,
                    in_h: 8,
                    in_w: 8,
                    window: 2,
                },
                Layer::Fc {
                    in_features: 256,
                    out_features: 10,
                },
            ],
            accuracy: Accuracy {
                float: 99.0,
                int8: 94.9,
                int4: 93.8,
            },
        }
    }

    /// LeNet-5-Large (TensorFlow tutorial model; MNIST; 12.27 M MACs).
    pub fn lenet_large() -> Network {
        Network {
            name: "LeNetLg",
            dataset: "MNIST",
            layers: vec![
                Layer::Conv {
                    in_ch: 1,
                    out_ch: 32,
                    filter: 5,
                    stride: 1,
                    in_h: 28,
                    in_w: 28,
                    padded: true,
                },
                Layer::Activation {
                    elements: 32 * 28 * 28,
                },
                Layer::Pool {
                    channels: 32,
                    in_h: 28,
                    in_w: 28,
                    window: 2,
                },
                Layer::Conv {
                    in_ch: 32,
                    out_ch: 64,
                    filter: 5,
                    stride: 1,
                    in_h: 14,
                    in_w: 14,
                    padded: true,
                },
                Layer::Activation {
                    elements: 64 * 14 * 14,
                },
                Layer::Pool {
                    channels: 64,
                    in_h: 14,
                    in_w: 14,
                    window: 2,
                },
                Layer::Fc {
                    in_features: 3136,
                    out_features: 512,
                },
                Layer::Activation { elements: 512 },
                Layer::Fc {
                    in_features: 512,
                    out_features: 10,
                },
            ],
            accuracy: Accuracy {
                float: 98.7,
                int8: 97.2,
                int4: 96.4,
            },
        }
    }

    /// SqueezeNet for CIFAR-10 (fire-module stack; ≈32.6 M MACs).
    pub fn squeezenet() -> Network {
        let mut layers = vec![
            Layer::Conv {
                in_ch: 3,
                out_ch: 64,
                filter: 3,
                stride: 2,
                in_h: 32,
                in_w: 32,
                padded: true,
            },
            Layer::Activation {
                elements: 64 * 16 * 16,
            },
        ];
        // Fire 1 @16×16, in 64 → out 256.
        layers.extend([
            Layer::Conv {
                in_ch: 64,
                out_ch: 32,
                filter: 1,
                stride: 1,
                in_h: 16,
                in_w: 16,
                padded: true,
            },
            Layer::Activation {
                elements: 32 * 16 * 16,
            },
            Layer::Conv {
                in_ch: 32,
                out_ch: 128,
                filter: 1,
                stride: 1,
                in_h: 16,
                in_w: 16,
                padded: true,
            },
            Layer::Activation {
                elements: 128 * 16 * 16,
            },
            Layer::Conv {
                in_ch: 32,
                out_ch: 128,
                filter: 3,
                stride: 1,
                in_h: 16,
                in_w: 16,
                padded: true,
            },
            Layer::Activation {
                elements: 128 * 16 * 16,
            },
            Layer::Pool {
                channels: 256,
                in_h: 16,
                in_w: 16,
                window: 2,
            },
        ]);
        // Fire 2 @8×8, in 256 → out 512.
        layers.extend([
            Layer::Conv {
                in_ch: 256,
                out_ch: 64,
                filter: 1,
                stride: 1,
                in_h: 8,
                in_w: 8,
                padded: true,
            },
            Layer::Activation {
                elements: 64 * 8 * 8,
            },
            Layer::Conv {
                in_ch: 64,
                out_ch: 256,
                filter: 1,
                stride: 1,
                in_h: 8,
                in_w: 8,
                padded: true,
            },
            Layer::Activation {
                elements: 256 * 8 * 8,
            },
            Layer::Conv {
                in_ch: 64,
                out_ch: 256,
                filter: 3,
                stride: 1,
                in_h: 8,
                in_w: 8,
                padded: true,
            },
            Layer::Activation {
                elements: 256 * 8 * 8,
            },
            Layer::Pool {
                channels: 512,
                in_h: 8,
                in_w: 8,
                window: 2,
            },
        ]);
        // Fire 3 @4×4, in 512 → out 512 (3×3 expand only).
        layers.extend([
            Layer::Conv {
                in_ch: 512,
                out_ch: 128,
                filter: 1,
                stride: 1,
                in_h: 4,
                in_w: 4,
                padded: true,
            },
            Layer::Activation {
                elements: 128 * 4 * 4,
            },
            Layer::Conv {
                in_ch: 128,
                out_ch: 512,
                filter: 3,
                stride: 1,
                in_h: 4,
                in_w: 4,
                padded: true,
            },
            Layer::Activation {
                elements: 512 * 4 * 4,
            },
            Layer::Pool {
                channels: 512,
                in_h: 4,
                in_w: 4,
                window: 2,
            },
        ]);
        // Classifier conv 1×1 → 10.
        layers.extend([
            Layer::Conv {
                in_ch: 512,
                out_ch: 10,
                filter: 1,
                stride: 1,
                in_h: 2,
                in_w: 2,
                padded: true,
            },
            Layer::Activation {
                elements: 10 * 2 * 2,
            },
        ]);
        Network {
            name: "SqzNet",
            dataset: "CIFAR-10",
            layers,
            accuracy: Accuracy {
                float: 76.5,
                int8: 74.0,
                int4: 15.0,
            },
        }
    }

    /// VGG16 for CIFAR-10 (13 conv + 2 FC; ≈313 M MACs).
    pub fn vgg16() -> Network {
        let blocks: [(usize, usize, usize); 5] = [
            (2, 64, 32),
            (2, 128, 16),
            (3, 256, 8),
            (3, 512, 4),
            (3, 512, 2),
        ];
        let mut layers = Vec::new();
        let mut in_ch = 3usize;
        for (convs, ch, hw) in blocks {
            for _ in 0..convs {
                layers.push(Layer::Conv {
                    in_ch,
                    out_ch: ch,
                    filter: 3,
                    stride: 1,
                    in_h: hw,
                    in_w: hw,
                    padded: true,
                });
                layers.push(Layer::Activation {
                    elements: ch * hw * hw,
                });
                in_ch = ch;
            }
            layers.push(Layer::Pool {
                channels: ch,
                in_h: hw,
                in_w: hw,
                window: 2,
            });
        }
        layers.push(Layer::Fc {
            in_features: 512,
            out_features: 512,
        });
        layers.push(Layer::Activation { elements: 512 });
        layers.push(Layer::Fc {
            in_features: 512,
            out_features: 10,
        });
        Network {
            name: "VGG16",
            dataset: "CIFAR-10",
            layers,
            accuracy: Accuracy {
                float: 70.0,
                int8: 66.0,
                int4: 21.0,
            },
        }
    }

    /// The four Table 5 networks.
    pub fn all() -> Vec<Network> {
        vec![
            Self::lenet_small(),
            Self::lenet_large(),
            Self::squeezenet(),
            Self::vgg16(),
        ]
    }
}

/// Client-aided execution accounting for one single-image inference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferencePlan {
    /// Client encryption operations.
    pub encryptions: u64,
    /// Client decryption operations.
    pub decryptions: u64,
    /// Total bytes transferred (both directions).
    pub comm_bytes: u64,
    /// Client↔server boundaries (non-linear stages).
    pub boundaries: u32,
    /// Elements processed by client non-linear code.
    pub nonlinear_elements: u64,
}

/// Ciphertexts needed to carry `slots` packed slots at `row_size` slots per
/// ciphertext row.
fn cts_for_slots(slots: usize, row_size: usize) -> u64 {
    slots.div_ceil(row_size) as u64
}

/// Slots a conv input occupies under redundant channel stacking.
fn stacked_slots(channels: usize, hw: usize, redundancy: usize) -> usize {
    channels * (hw + 2 * redundancy).next_power_of_two()
}

/// Builds the client-aided inference plan for `net` under parameter set
/// `params`.
///
/// The walk mirrors §5.1: the image is uploaded encrypted; every maximal
/// run of non-linear layers forms one boundary where the server's linear
/// output is downloaded and the repacked result re-uploaded.
pub fn client_aided_plan(net: &Network, params: &HeParams) -> InferencePlan {
    let row = params.degree() / 2;
    let ct_bytes = params.ciphertext_bytes() as u64;
    let mut plan = InferencePlan::default();

    // Initial upload: the input of the first linear layer.
    let first = &net.layers[0];
    let first_up = match *first {
        Layer::Conv {
            in_ch,
            in_h,
            in_w,
            filter,
            ..
        } => {
            let red = (filter / 2) * (in_w + 1);
            cts_for_slots(stacked_slots(in_ch, in_h * in_w, red), row)
        }
        Layer::Fc { in_features, .. } => cts_for_slots(2 * in_features, row),
        _ => 0,
    };
    plan.encryptions += first_up;
    plan.comm_bytes += first_up * ct_bytes;

    let n_layers = net.layers.len();
    let mut i = 0;
    while i < n_layers {
        if net.layers[i].is_linear() {
            // Find the end of the linear run.
            let mut j = i;
            while j + 1 < n_layers && net.layers[j + 1].is_linear() {
                j += 1;
            }
            let out_elems = net.layers[j].output_elements();
            // Download the linear output.
            let down = cts_for_slots(out_elems, row);
            plan.decryptions += down;
            plan.comm_bytes += down * ct_bytes;

            // Walk the non-linear run.
            let mut k = j + 1;
            let mut nonlinear = 0u64;
            while k < n_layers && !net.layers[k].is_linear() {
                nonlinear += net.layers[k].output_elements() as u64;
                k += 1;
            }
            plan.nonlinear_elements += nonlinear.max(out_elems as u64);

            if k < n_layers {
                // Re-upload packed for the next linear layer.
                let up = match net.layers[k] {
                    Layer::Conv {
                        in_ch,
                        in_h,
                        in_w,
                        filter,
                        ..
                    } => {
                        let red = (filter / 2) * (in_w + 1);
                        cts_for_slots(stacked_slots(in_ch, in_h * in_w, red), row)
                    }
                    Layer::Fc { in_features, .. } => cts_for_slots(2 * in_features, row),
                    _ => {
                        debug_assert!(false, "k indexes a linear layer");
                        0
                    }
                };
                plan.encryptions += up;
                plan.comm_bytes += up * ct_bytes;
                plan.boundaries += 1;
            }
            i = k;
        } else {
            i += 1;
        }
    }
    plan
}

/// One point of the Figure 15 convolution microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroPoint {
    /// Image height = width.
    pub img: usize,
    /// Input = output channels.
    pub channels: usize,
    /// Filter size (1 or 3).
    pub filter: usize,
    /// MACs of the layer.
    pub macs: u64,
    /// Boundary communication in bytes under `params`.
    pub comm_bytes: u64,
}

/// Generates the Figure 15 sweep: image sizes 2–32 (powers of two),
/// channels 32–512 (powers of two), filter sizes {1, 3}.
pub fn conv_microbenchmark(params: &HeParams) -> Vec<MicroPoint> {
    let row = params.degree() / 2;
    let ct_bytes = params.ciphertext_bytes() as u64;
    let mut out = Vec::new();
    let mut img = 2usize;
    while img <= 32 {
        let mut ch = 32usize;
        while ch <= 512 {
            for filter in [1usize, 3] {
                let layer = Layer::Conv {
                    in_ch: ch,
                    out_ch: ch,
                    filter,
                    stride: 1,
                    in_h: img,
                    in_w: img,
                    padded: true,
                };
                let red = (filter / 2) * (img + 1);
                let up = cts_for_slots(stacked_slots(ch, img * img, red), row);
                let down = cts_for_slots(layer.output_elements(), row);
                out.push(MicroPoint {
                    img,
                    channels: ch,
                    filter,
                    macs: layer.macs(),
                    comm_bytes: (up + down) * ct_bytes,
                });
            }
            ch *= 2;
        }
        img *= 2;
    }
    out
}

/// Plaintext reference: 2-D *circular* convolution per output channel
/// (matching the encrypted kernel's flattened-rotation semantics; callers
/// compare interior pixels for `valid` behaviour).
pub fn conv2d_plain_circular(
    input: &[Vec<u64>],        // [in_ch][h*w]
    weights: &[Vec<Vec<u64>>], // [out_ch][in_ch][f*f]
    h: usize,
    w: usize,
    f: usize,
    t: u64,
) -> Vec<Vec<u64>> {
    let pad = f / 2;
    let out_ch = weights.len();
    let in_ch = input.len();
    let mut out = vec![vec![0u64; h * w]; out_ch];
    for (o, out_map) in out.iter_mut().enumerate() {
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0u64;
                for (c, in_map) in input.iter().enumerate().take(in_ch) {
                    for dy in 0..f {
                        for dx in 0..f {
                            // Flattened circular shift: index (y*w + x) +
                            // (dy-pad)*w + (dx-pad), wrapped mod h*w.
                            let shift =
                                (dy as i64 - pad as i64) * w as i64 + (dx as i64 - pad as i64);
                            let idx =
                                ((y * w + x) as i64 + shift).rem_euclid((h * w) as i64) as usize;
                            acc = (acc + weights[o][c][dy * f + dx] * in_map[idx]) % t;
                        }
                    }
                }
                out_map[y * w + x] = acc;
            }
        }
    }
    out
}

const CONV_MAGIC: &[u8; 4] = b"RCV2";

/// How a LeNet layer's program compiles: integer weights at scale `2^0`,
/// where BFV's quantization is the identity on values below `t`, and no
/// rescaling chain to schedule.
pub(crate) const LAYER_OPTIONS: CompilerOptions = CompilerOptions {
    scale_bits: 0,
    prime_bits: 0,
    max_levels: 1,
};

/// How a session-resident program compiles under `params`: BFV programs
/// carry their constants as integers below `t`, quantized by the workload
/// itself, so they compile like a LeNet layer ([`LAYER_OPTIONS`]); CKKS
/// programs compile at the parameter set's own waterline — its scale, its
/// first prime's width and its data-prime count.
pub(crate) fn resident_options(params: &HeParams) -> CompilerOptions {
    match params.scheme() {
        SchemeType::Bfv => LAYER_OPTIONS,
        SchemeType::Ckks => CompilerOptions {
            scale_bits: params.scale_bits(),
            prime_bits: params.prime_bits().first().copied().unwrap_or(0),
            max_levels: params.data_prime_count(),
        },
    }
}

/// Row-rotation distance of every tap of an `f × f` filter over `w`-wide
/// maps, in tap order (row-major over the filter).
fn tap_shifts(f: usize, w: usize) -> impl Iterator<Item = i64> {
    let (f, w, pad) = (f as i64, w as i64, f as i64 / 2);
    (0..f).flat_map(move |dy| (0..f).map(move |dx| (dy - pad) * w + (dx - pad)))
}

/// Gazelle's channel-diagonal packing of one conv layer in a `row`-slot
/// ciphertext row — the FC's hybrid split ([`matvec_hybrid_shape`]) applied
/// to channels.
///
/// The row holds `B = row / stride` channel blocks. An input group has `C'`
/// channels (a power of two, `C' ≤ B`) and is packed *periodically*: block
/// `b` holds group channel `b mod C'`. Output channels are taken `B` at a
/// time, an *output group* each, and output `o` of a group comes back in
/// block `o` of the group's one ciphertext — one download per `B` outputs.
///
/// For a group of `n` outputs, `(D, folds) = matvec_hybrid_shape(min(n,
/// C'), C')`. The server convolves each input group once — one rotation per
/// filter tap, shared by every output — producing `D` *diagonals* per output
/// group: diagonal `d` weighs block `b`'s channel for output `(b − d) mod
/// P`, `P = B` without folds and `D` with them (zero past the group's
/// outputs). The diagonals are summed over input groups, and each output
/// group's `Σ_d rotate(X_d, d·stride)` runs as a rotate-add tree (`D − 1`
/// rotations) followed by the folds by `stride·(C'/2 … D)`. Every rotation
/// is by `stride·2^i` with `2^i < C'` — the channel steps of
/// [`conv_rotation_steps`].
///
/// [`Self::program`] is that server half as a compiled-IR program, the form
/// a layer runs ([`ResumableConvLayer`]): the executor makes each input
/// group's diagonals one kernel call and keeps the encoded weights across
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvPacking {
    /// The `B` blocks of the whole row.
    layout: StackedLayout,
    /// `C'`: channels per input group.
    channels: usize,
    f: usize,
    w: usize,
}

impl ConvPacking {
    /// The packing of `channels`-channel input groups (rounded up to a power
    /// of two) of `h × w` maps under an `f × f` filter in a `row`-slot row.
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] when one padded group does not fit the row.
    pub fn new(channels: usize, h: usize, w: usize, f: usize, row: usize) -> Result<Self, HeError> {
        let channels = channels.next_power_of_two();
        let group = StackedLayout::new(channels, RedundantLayout::new(h * w, (f / 2) * (w + 1)));
        if !group.fits(row) {
            return Err(HeError::Mismatch(
                "layer too large for one ciphertext; split across ciphertexts".into(),
            ));
        }
        Ok(ConvPacking {
            layout: StackedLayout::new(row / group.stride(), *group.channel_layout()),
            channels,
            f,
            w,
        })
    }

    /// `B`: the channel blocks of the row, i.e. the outputs one download
    /// carries.
    fn blocks(&self) -> usize {
        self.layout.channels()
    }

    /// Packs an input group across the whole row: block `b` holds channel
    /// `b mod C'`, a zero map for channels past the end of `group`.
    pub fn pack(&self, group: &[Vec<u64>]) -> Vec<u64> {
        let zero = vec![0u64; self.layout.channel_layout().window()];
        let padded = group
            .iter()
            .chain(std::iter::repeat(&zero))
            .take(self.channels);
        let periodic: Vec<Vec<u64>> = padded.cycle().take(self.blocks()).cloned().collect();
        self.layout.pack(&periodic)
    }

    /// `(D, folds)` of an output group of `outputs` channels.
    fn shape(&self, outputs: usize) -> (usize, Vec<usize>) {
        matvec_hybrid_shape(outputs.min(self.channels), self.channels)
    }

    /// The `D` diagonals' tap lists of one output group (`outputs`, weights
    /// `[o][in][f·f]`) over input group `g`.
    fn diagonal_taps(&self, outputs: &[Vec<Vec<u64>>], g: usize) -> Vec<Vec<ConvTap>> {
        let (depth, folds) = self.shape(outputs.len());
        let period = if folds.is_empty() {
            self.blocks()
        } else {
            depth
        };
        let first = g * self.channels;
        let weight = |b: usize, d: usize, k: usize| {
            let o = (b + period - d) % period;
            let c = first + b % self.channels;
            let w_oc = outputs.get(o).and_then(|w_o| w_o.get(c));
            w_oc.and_then(|w_oc| w_oc.get(k)).copied().unwrap_or(0)
        };
        (0..depth)
            .map(|d| {
                tap_shifts(self.f, self.w)
                    .enumerate()
                    .map(|(k, shift)| ConvTap {
                        shift,
                        channel_weights: (0..self.blocks()).map(|b| weight(b, d, k)).collect(),
                    })
                    .collect()
            })
            .collect()
    }

    /// The name of input group `g` in [`Self::program`].
    pub fn input_name(g: usize) -> String {
        format!("group{g}")
    }

    /// The server half of a layer over `inputs` input groups as a program:
    /// input [`Self::input_name`]`(g)` is group `g` (channels `g·C'` onward,
    /// [`Self::pack`]ed), weights `[out][in][f·f]` are reduced mod `t`. Per
    /// input group one rotation per filter tap, shared by every diagonal,
    /// and one dot chain per diagonal in tap order over broadcast weight
    /// constants; the diagonals summed across input groups; then per output
    /// group `Σ_d rotate(X_d, d·stride)` as a rotate-add tree — each level
    /// adds the upper half, rotated by its offset, onto the lower — and the
    /// folds, and one output per output group, in order.
    pub fn program(&self, inputs: usize, weights: &[Vec<Vec<u64>>], t: u64) -> Program {
        let mut p = Program::new();
        let output_groups = || weights.chunks(self.blocks());
        let mut diagonals: Vec<NodeId> = Vec::new();
        for g in 0..inputs {
            let x = p.input(&Self::input_name(g));
            let taps: Vec<NodeId> = tap_shifts(self.f, self.w)
                .map(|shift| if shift == 0 { x } else { p.rotate(x, shift) })
                .collect();
            let mut partials = Vec::new();
            for diagonal in output_groups().flat_map(|outputs| self.diagonal_taps(outputs, g)) {
                let mut acc = None;
                for (tap, &rotated) in diagonal.iter().zip(&taps) {
                    let broadcast = self.layout.broadcast_weights(&tap.channel_weights);
                    let values: Vec<f64> = broadcast.iter().map(|&v| (v % t) as f64).collect();
                    let c = p.constant(&values);
                    let term = p.mul_plain(rotated, c);
                    acc = Some(acc.map_or(term, |a| p.add(a, term)));
                }
                partials.extend(acc);
            }
            diagonals = if diagonals.is_empty() {
                partials
            } else {
                let sums = diagonals.iter().zip(&partials);
                sums.map(|(&total, &partial)| p.add(total, partial))
                    .collect()
            };
        }
        let stride = self.layout.stride();
        let mut diagonals = diagonals.into_iter();
        for outputs in output_groups() {
            let (depth, folds) = self.shape(outputs.len());
            let mut sums: Vec<NodeId> = diagonals.by_ref().take(depth).collect();
            while sums.len() > 1 {
                let upper = sums.split_off(sums.len() / 2);
                let step = (upper.len() * stride) as i64;
                sums = sums
                    .iter()
                    .zip(&upper)
                    .map(|(&lo, &hi)| {
                        let rotated = p.rotate(hi, step);
                        p.add(lo, rotated)
                    })
                    .collect();
            }
            if let Some(mut acc) = sums.pop() {
                for fold in &folds {
                    let rotated = p.rotate(acc, (fold * stride) as i64);
                    acc = p.add(acc, rotated);
                }
                p.output(acc);
            }
        }
        p
    }

    /// [`Self::program`], compiled.
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] for a layer with no input group or no output.
    pub fn compile_layer(
        &self,
        inputs: usize,
        weights: &[Vec<Vec<u64>>],
        t: u64,
    ) -> Result<CompiledProgram, HeError> {
        compile(&self.program(inputs, weights, t), &LAYER_OPTIONS)
            .map_err(|e| HeError::Mismatch(format!("conv layer program: {e}")))
    }

    /// What [`Self::program`] is a function of, exactly: the packing, the
    /// input-group count and the raw weights with their shape, behind
    /// [`CONV_KEY_TAG`] — the key a session keeps the compiled layer under.
    /// A few KB; the program's constants are `B · stride` slots per weight.
    pub(crate) fn layer_key(&self, inputs: usize, weights: &[Vec<Vec<u64>>]) -> Vec<u64> {
        let geometry = [
            self.blocks(),
            self.layout.stride(),
            self.channels,
            self.f,
            self.w,
            inputs,
        ];
        let mut key = vec![CONV_KEY_TAG];
        key.extend(geometry.iter().map(|&v| v as u64));
        for w_o in weights {
            key.push(w_o.len() as u64);
            for w_oc in w_o {
                key.push(w_oc.len() as u64);
                key.extend(w_oc);
            }
        }
        key
    }
}

/// The leading word of a conv layer's resident-program key
/// ([`Session::run_resident`]). Each kind of resident program leads its key
/// with its own tag, so two kinds whose definitions spell the same numbers
/// never share a table entry.
pub(crate) const CONV_KEY_TAG: u64 = u64::from_le_bytes(*b"conv lyr");

/// One encrypted convolution layer as a state machine of one step — one
/// client-aided round. The step packs, encrypts and uploads the input
/// channels, [`ConvPacking`]'s channel groups one ciphertext each (one group
/// whenever the layer fits the session's row); guards and ticks each input;
/// runs the layer's compiled [`ConvPacking::program`], which the session
/// keeps resident with its encoded weights ([`Session::run_resident`]) so a
/// layer whose weights it has seen before encodes nothing; then downloads
/// and decrypts every *output group* — up to `B` output channels in one
/// ciphertext — in order, and ends the round.
///
/// Nothing stays on the server between steps: a crash anywhere inside the
/// layer replays the whole layer from the checkpoint before it, whose client
/// RNG position re-encrypts the same bytes.
#[derive(Debug, Clone)]
pub struct ResumableConvLayer {
    /// `in_ch` channel maps of `h·w` pixels.
    input: Vec<Vec<u64>>,
    weights: Vec<Vec<Vec<u64>>>,
    h: usize,
    w: usize,
    f: usize,
    maps: Vec<Vec<u64>>,
    /// The downloaded output groups, in order (empty until the step ran).
    replies: Vec<Ciphertext>,
}

impl ResumableConvLayer {
    /// Starts a fresh layer run. Input: `in_ch` channel maps of `h·w`
    /// 4-bit values (any count: [`ConvPacking`] zero-pads a group to a power
    /// of two); weights `[out_ch][in_ch][f·f]` 4-bit values.
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] (wrapped) for empty inputs or weights, a map
    /// that is not `h·w` pixels, a filter whose padding exceeds the map and
    /// weights not shaped `[out_ch][in_ch][f·f]`.
    pub fn new(
        input: &[Vec<u64>],
        weights: &[Vec<Vec<u64>>],
        h: usize,
        w: usize,
        f: usize,
    ) -> Result<Self, TransportError> {
        let refuse = |msg: String| Err(HeError::Mismatch(msg).into());
        if input.is_empty() || weights.is_empty() {
            return refuse("empty conv input or weights".into());
        }
        if let Some(c) = input.iter().position(|map| map.len() != h * w) {
            return refuse(format!("input channel {c} is not {h}x{w} pixels"));
        }
        if f == 0 || (f / 2) * (w + 1) > h * w {
            return refuse(format!("a {f}x{f} filter's padding exceeds {h}x{w} maps"));
        }
        let shaped = |w_o: &Vec<Vec<u64>>| {
            w_o.len() == input.len() && w_o.iter().all(|w_oc| w_oc.len() == f * f)
        };
        if let Some(o) = weights.iter().position(|w_o| !shaped(w_o)) {
            let (in_ch, taps) = (input.len(), f * f);
            return refuse(format!("weights of output {o} are not [{in_ch}][{taps}]"));
        }
        Ok(ResumableConvLayer {
            input: input.to_vec(),
            weights: weights.to_vec(),
            h,
            w,
            f,
            maps: Vec::new(),
            replies: Vec::new(),
        })
    }

    /// Per-output-channel feature maps (all of them once done). Each
    /// matches [`conv2d_plain_circular`] exactly (the client would discard
    /// border pixels for `valid` semantics).
    pub fn maps(&self) -> &[Vec<u64>] {
        &self.maps
    }
}

impl ResumableWorkload for ResumableConvLayer {
    type Scheme = Bfv;

    /// Runs the layer's round. A channel too wide for the session's row is
    /// [`HeError::Mismatch`].
    fn step(&mut self, session: &mut Session<Bfv>) -> Result<(), TransportError> {
        if self.is_done() {
            return Ok(());
        }
        let (h, w, f) = (self.h, self.w, self.f);
        let row = session.server().slot_width();
        let per_ct = channels_per_ct(self.input.len(), h, w, f, row)?;
        let packing = ConvPacking::new(per_ct, h, w, f, row)?;
        // Client: pack + encrypt + upload (framed, retried), one ciphertext
        // per input group.
        let mut uploaded = Vec::new();
        for group in self.input.chunks(per_ct) {
            let ct = session.client_mut().encrypt_slots(&packing.pack(group))?;
            uploaded.push(session.upload(&ct)?);
        }
        // Server: a compute tick per input, then the layer's program —
        // looked up in the session by the layer's definition, built and
        // compiled on a miss.
        let (inputs, weights) = (uploaded.len(), &self.weights);
        let mut named = HashMap::new();
        for (g, at_server) in uploaded.into_iter().enumerate() {
            named.insert(ConvPacking::input_name(g), at_server);
            session.compute_tick()?;
        }
        let key = packing.layer_key(inputs, weights);
        let build = |ctx: &BfvContext| packing.compile_layer(inputs, weights, ctx.plain_modulus());
        let outputs = session.run_resident(&key, build, &named)?;
        // Client: download + decrypt every output group, `B` maps each.
        let mut maps = Vec::with_capacity(outputs.len() * packing.blocks());
        let mut replies = Vec::with_capacity(outputs.len());
        for at_server in &outputs {
            let back = session.download(at_server)?;
            let slots = session.client_mut().decrypt_slots(&back)?;
            maps.append(&mut packing.layout.extract(&slots));
            replies.push(back);
        }
        if maps.len() < weights.len() {
            // `run` would step a layer that is never done forever.
            let lost = "conv layer program lost an output group";
            return Err(HeError::Mismatch(lost.into()).into());
        }
        maps.truncate(weights.len());
        session.ledger_mut().end_round();
        self.maps = maps;
        self.replies = replies;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.maps.len() == self.weights.len()
    }

    fn progress(&self) -> Vec<u8> {
        let mut out = CONV_MAGIC.to_vec();
        put_maps(&mut out, &self.maps);
        out.extend_from_slice(&(self.replies.len() as u32).to_le_bytes());
        for reply in &self.replies {
            put_ct::<Bfv>(&mut out, Some(reply));
        }
        out
    }

    /// Restores the maps and the output groups a finished layer downloaded.
    fn restore(mut self, progress: &[u8]) -> Result<Self, TransportError> {
        let mut r = progress_cursor(progress, CONV_MAGIC)?;
        let maps = read_maps(&mut r, self.weights.len(), self.h * self.w)?;
        let count = r.take_u32()? as usize;
        if count > self.weights.len() {
            return Err(bad_progress("more output groups than outputs"));
        }
        let mut replies = Vec::with_capacity(count);
        for _ in 0..count {
            let reply = read_ct::<Bfv>(&mut r)?;
            replies.push(reply.ok_or_else(|| bad_progress("empty output group"))?);
        }
        finish_progress(&r)?;
        self.maps = maps;
        self.replies = replies;
        Ok(self)
    }

    fn final_ct_wire(&self) -> Vec<u8> {
        self.replies.iter().flat_map(Bfv::ct_to_wire).collect()
    }
}

/// Runs one encrypted convolution layer ([`ResumableConvLayer`]) end to end
/// through the client-aided protocol session and returns the
/// per-output-channel feature maps.
///
/// Every ciphertext crosses the session's framed channels with retries. Over
/// a
/// [`DirectChannel`](choco::transport::DirectChannel) link this *is* the
/// fault-free path, with identical primary ledger counters. Any channel
/// count works: input channels that do not fit one ciphertext row are split
/// into power-of-two groups, one ciphertext each, whose diagonals the
/// program adds before the channel sum; a group is zero-padded to a power
/// of two.
///
/// # Errors
///
/// Typed [`TransportError`]s when the link is worse than the retry budget;
/// HE-layer failures, and the mis-shaped inputs [`ResumableConvLayer::new`]
/// refuses, are wrapped in [`TransportError::He`].
pub fn run_encrypted_conv_layer(
    session: &mut Session<Bfv>,
    input: &[Vec<u64>],
    weights: &[Vec<Vec<u64>>],
    h: usize,
    w: usize,
    f: usize,
) -> Result<Vec<Vec<u64>>, TransportError> {
    let mut layer = ResumableConvLayer::new(input, weights, h, w, f)?;
    layer.run(session)?;
    Ok(layer.maps)
}

/// One convolution tap: rotate the packed input by `shift` slots, then
/// multiply by one weight per channel block, broadcast over the block.
#[derive(Debug, Clone)]
pub(crate) struct ConvTap {
    /// Row-rotation distance (positive = left), bounded by the layout's
    /// redundancy.
    pub(crate) shift: i64,
    /// One weight per channel block of the layout.
    pub(crate) channel_weights: Vec<u64>,
}

/// Filter taps for one output channel over the `per_ct` input channels
/// starting at `first_ch`: per-tap shift plus the per-input-channel weight
/// vector (zero for channels past the end of `out_weights`).
pub(crate) fn conv_taps(
    out_weights: &[Vec<u64>],
    first_ch: usize,
    per_ct: usize,
    f: usize,
    w: usize,
) -> Vec<ConvTap> {
    let channels = first_ch..first_ch + per_ct;
    tap_shifts(f, w)
        .enumerate()
        .map(|(k, shift)| ConvTap {
            shift,
            channel_weights: channels
                .clone()
                .map(|c| out_weights.get(c).map_or(0, |wc| wc[k]))
                .collect(),
        })
        .collect()
}

/// Galois rotation steps a conv layer of this shape needs: the filter taps
/// plus the channel steps `stride·2^i`, `2^i < in_ch`, of the channel sum.
pub fn conv_rotation_steps(in_ch: usize, h: usize, w: usize, f: usize) -> Vec<i64> {
    let pad = f / 2;
    let red = pad * (w + 1);
    let layout = StackedLayout::new(in_ch, RedundantLayout::new(h * w, red));
    let mut steps: Vec<i64> = tap_shifts(f, w).filter(|&s| s != 0).collect();
    let mut step = 1usize;
    while step < in_ch {
        steps.push((step * layout.stride()) as i64);
        step <<= 1;
    }
    steps.sort_unstable();
    steps.dedup();
    steps
}

/// Rotation steps of a conv layer at `row` slots: like
/// [`conv_rotation_steps`] but with the channel steps sized to the channel
/// group one ciphertext carries, for layers whose input does not fit one.
///
/// # Errors
///
/// [`HeError::Mismatch`] when one channel does not fit a `row`-slot row, as
/// [`run_encrypted_conv_layer`] refuses the layer.
pub fn conv_rotation_steps_multi(
    in_ch: usize,
    h: usize,
    w: usize,
    f: usize,
    row: usize,
) -> Result<Vec<i64>, HeError> {
    Ok(conv_rotation_steps(
        channels_per_ct(in_ch, h, w, f, row)?,
        h,
        w,
        f,
    ))
}

/// The channel-group size of a layer's input ciphertexts: the largest power
/// of two of channels that fits a `row`-slot row, capped at `in_ch` rounded
/// up to one.
///
/// # Errors
///
/// [`HeError::Mismatch`] when one channel does not fit the row.
fn channels_per_ct(
    in_ch: usize,
    h: usize,
    w: usize,
    f: usize,
    row: usize,
) -> Result<usize, HeError> {
    let red = (f / 2) * (w + 1);
    let stride = (h * w + 2 * red).next_power_of_two();
    if stride > row {
        return Err(HeError::Mismatch(
            "one channel must fit a ciphertext row".into(),
        ));
    }
    Ok((1usize << (row / stride).ilog2()).min(in_ch.next_power_of_two()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco::compiler::Op;

    #[test]
    fn conv_rotation_steps_cover_every_kernel_rotation() {
        // The conv kernel's compiler-IR twin requests one rotation per
        // filter tap plus the channel-accumulation tree; the
        // hand-maintained provisioning list must be a superset — a missing
        // Galois key would otherwise only surface as a runtime error.
        use crate::circuits::dnn_conv_program;
        use choco::compiler::{compile, CompilerOptions};
        let (in_ch, h, w, f) = (4usize, 8usize, 8usize, 3usize);
        let opts = CompilerOptions {
            scale_bits: 30,
            prime_bits: 45,
            max_levels: 3,
        };
        let compiled = compile(&dnn_conv_program(in_ch, h, w, f), &opts).unwrap();

        let advertised = conv_rotation_steps(in_ch, h, w, f);
        let requested = compiled.rotation_steps();
        assert!(!requested.is_empty());
        for s in requested {
            assert!(
                advertised.contains(&s),
                "kernel requests rotation {s} that conv_rotation_steps does not advertise"
            );
        }
    }

    #[test]
    fn table5_mac_totals() {
        let nets = Network::all();
        let expect = [
            ("LeNetSm", 0.24e6, 0.05),
            ("LeNetLg", 12.27e6, 0.05),
            ("SqzNet", 32.6e6, 0.10),
            ("VGG16", 313.26e6, 0.05),
        ];
        for (net, (name, macs, tol)) in nets.iter().zip(expect) {
            assert_eq!(net.name, name);
            let got = net.total_macs() as f64;
            assert!((got - macs).abs() / macs < tol, "{name}: {got} vs {macs}");
        }
    }

    #[test]
    fn table5_layer_counts() {
        assert_eq!(Network::lenet_small().layer_counts(), (2, 1, 2, 2));
        assert_eq!(Network::lenet_large().layer_counts(), (2, 2, 3, 2));
        let (c, f, a, p) = Network::squeezenet().layer_counts();
        assert_eq!((c, f, p), (10, 0, 3), "squeezenet shape");
        assert_eq!(a, 10);
        assert_eq!(Network::vgg16().layer_counts(), (13, 2, 14, 5));
    }

    #[test]
    fn table5_model_sizes() {
        // Float (32-bit) sizes in MB vs Table 5, loose tolerance (the paper
        // includes framework overheads).
        let lenet_sm = Network::lenet_small().model_bytes(32) as f64 / 1e6;
        assert!((0.015..0.03).contains(&lenet_sm), "LeNetSm {lenet_sm} MB");
        let vgg = Network::vgg16().model_bytes(32) as f64 / 1e6;
        assert!((50.0..70.0).contains(&vgg), "VGG {vgg} MB");
        // 4-bit is 8× smaller than float.
        let net = Network::lenet_large();
        assert_eq!(net.model_bytes(32), 8 * net.model_bytes(4));
    }

    #[test]
    fn plans_scale_with_network_size() {
        let params = HeParams::set_a();
        let plans: Vec<InferencePlan> = Network::all()
            .iter()
            .map(|n| client_aided_plan(n, &params))
            .collect();
        // Larger networks need at least as much communication as LeNetSm.
        assert!(plans[1].comm_bytes > plans[0].comm_bytes);
        assert!(plans[3].comm_bytes > plans[0].comm_bytes);
        for p in &plans {
            assert!(p.encryptions > 0 && p.decryptions > 0);
            assert!(p.boundaries > 0);
        }
    }

    #[test]
    fn lenet_comm_is_megabytes_not_gigabytes() {
        // §5.3: CHOCO's whole-network communication is a few MB (Table 5:
        // 2.6 MB for LeNetLg with set B).
        let params = HeParams::set_b();
        let plan = client_aided_plan(&Network::lenet_large(), &params);
        let mb = plan.comm_bytes as f64 / 1e6;
        assert!((0.5..20.0).contains(&mb), "LeNetLg comm {mb} MB");
    }

    #[test]
    fn microbenchmark_covers_figure15_grid() {
        let pts = conv_microbenchmark(&HeParams::set_a());
        // 5 image sizes × 5 channel counts × 2 filters.
        assert_eq!(pts.len(), 50);
        // Larger filters mean more MACs, same (or equal) communication for
        // fixed geometry — the paper's "filters add classification power
        // for free" observation.
        for pair in pts.chunks(2) {
            let (f1, f3) = (&pair[0], &pair[1]);
            assert!(f3.macs > f1.macs);
        }
    }

    #[test]
    fn multi_ciphertext_conv_matches_plain_reference() {
        // 8 input channels of 8x8 at N=1024 (row 512): stride 128 → only 4
        // channels fit per ciphertext → 2 groups, summed server-side.
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 20).unwrap();
        let (h, w, f, in_ch, out_ch) = (8usize, 8usize, 3usize, 8usize, 2usize);
        let row = params.degree() / 2;
        let steps = conv_rotation_steps_multi(in_ch, h, w, f, row).unwrap();
        let mut session = Session::<Bfv>::direct(&params, b"multi conv", &steps).unwrap();

        let input: Vec<Vec<u64>> = (0..in_ch)
            .map(|c| (0..h * w).map(|i| ((i * 3 + c * 7) % 8) as u64).collect())
            .collect();
        let weights: Vec<Vec<Vec<u64>>> = (0..out_ch)
            .map(|o| {
                (0..in_ch)
                    .map(|c| (0..f * f).map(|i| ((i + o + 2 * c) % 8) as u64).collect())
                    .collect()
            })
            .collect();

        let got = run_encrypted_conv_layer(&mut session, &input, &weights, h, w, f).unwrap();
        let t = session.server().context().plain_modulus();
        let want = conv2d_plain_circular(&input, &weights, h, w, f, t);
        assert_eq!(got, want);
        // Two uploads (one per group), one download for both outputs (one
        // output group of up to 4).
        assert_eq!(session.ledger().uploads, 2);
        assert_eq!(session.ledger().downloads, 1);
    }

    #[test]
    fn encrypted_conv_layer_matches_plain_reference() {
        let params = HeParams::bfv_insecure(2048, &[45, 45, 46], 18).unwrap();
        let (h, w, f, in_ch, out_ch) = (6usize, 6usize, 3usize, 2usize, 2usize);
        let steps = conv_rotation_steps(in_ch, h, w, f);
        let mut session = Session::<Bfv>::direct(&params, b"dnn conv", &steps).unwrap();

        // Seeded 4-bit inputs and weights.
        let input: Vec<Vec<u64>> = (0..in_ch)
            .map(|c| (0..h * w).map(|i| ((i * 7 + c * 3) % 16) as u64).collect())
            .collect();
        let weights: Vec<Vec<Vec<u64>>> = (0..out_ch)
            .map(|o| {
                (0..in_ch)
                    .map(|c| (0..f * f).map(|i| ((i + o + c) % 16) as u64).collect())
                    .collect()
            })
            .collect();

        let got = run_encrypted_conv_layer(&mut session, &input, &weights, h, w, f).unwrap();
        let t = session.server().context().plain_modulus();
        let want = conv2d_plain_circular(&input, &weights, h, w, f, t);
        assert_eq!(got, want);
        // Both output maps come back in one ciphertext (16 blocks of 64).
        assert_eq!(session.ledger().uploads, 1);
        assert_eq!(session.ledger().downloads, 1);
        let (client, _server, _ledger) = session.into_parts();
        assert_eq!(client.encryption_count(), 1);
        assert_eq!(client.decryption_count(), 1);
    }

    /// Seeded 4-bit channel maps and `[out][in][f·f]` weights.
    fn seeded_layer(
        rng: &mut choco_prng::Blake3Rng,
        (in_ch, out_ch, pixels, taps): (usize, usize, usize, usize),
    ) -> (Vec<Vec<u64>>, Vec<Vec<Vec<u64>>>) {
        let mut w4 = |n: usize| -> Vec<u64> { (0..n).map(|_| rng.next_below(16)).collect() };
        let input = (0..in_ch).map(|_| w4(pixels)).collect();
        let weights = (0..out_ch)
            .map(|_| (0..in_ch).map(|_| w4(taps)).collect())
            .collect();
        (input, weights)
    }

    fn is_missing_key(result: Result<Vec<Vec<u64>>, TransportError>) -> bool {
        matches!(
            result,
            Err(TransportError::He(HeError::MissingGaloisKey(_)))
        )
    }

    #[test]
    fn packed_layer_equals_the_plain_conv_over_shapes() {
        // Rows of 128 and 512 slots over 4 × 4 and 8 × 8 maps give 1 to 32
        // blocks, so the cases cover the single-group path (with and
        // without folds) and the grouped path (in_ch > B).
        choco_quickprop::run_cases("packed conv layer", 24, |g| {
            let degree = [256, 1024][g.usize_in(0, 2)];
            let side = [4, 8][g.usize_in(0, 2)];
            let f = [1, 3, 5][g.usize_in(0, 3)];
            let in_ch = [1, 2, 3, 4, 8][g.usize_in(0, 5)];
            let row = degree / 2;
            let blocks = ConvPacking::new(1, side, side, f, row).unwrap().blocks();
            let out_ch = [1, 2, 3, 5, 8, blocks + 1][g.usize_in(0, 6)];
            let label = format!("N={degree} {side}x{side} f={f} {in_ch}->{out_ch} B={blocks}");
            let params = HeParams::bfv_insecure(degree, &[45, 45, 46], 20).unwrap();
            let mut rng = choco_prng::Blake3Rng::from_seed(label.as_bytes());
            let (input, weights) = seeded_layer(&mut rng, (in_ch, out_ch, side * side, f * f));
            let group_ch = in_ch.next_power_of_two().min(blocks);
            let steps = conv_rotation_steps(group_ch, side, side, f);
            let run = |steps: &[i64]| {
                let mut session = Session::<Bfv>::direct(&params, b"packed", steps).unwrap();
                let maps = run_encrypted_conv_layer(&mut session, &input, &weights, side, side, f);
                (maps, session.ledger().downloads)
            };

            let t = params.plain_modulus();
            let want = conv2d_plain_circular(&input, &weights, side, side, f, t);
            let (maps, downloads) = run(&steps);
            assert_eq!(maps.unwrap(), want, "{label}");
            assert_eq!(downloads as usize, out_ch.div_ceil(blocks), "{label}");
            // One fused bundle per input group; a lone tap is a multiply.
            let inputs = in_ch.div_ceil(group_ch);
            let packing = ConvPacking::new(group_ch, side, side, f, row).unwrap();
            let compiled = packing.compile_layer(inputs, &weights, t).unwrap();
            let calls = if f == 1 { 0 } else { inputs };
            assert_eq!(compiled.fused_bundles(), calls, "{label}");
            // Every channel step is load-bearing: tree or fold.
            let stride = (row / blocks) as i64;
            for (i, missing) in steps.iter().filter(|&&s| s >= stride).enumerate() {
                let short: Vec<i64> = steps.iter().copied().filter(|s| s != missing).collect();
                assert!(is_missing_key(run(&short).0), "{label}: step {i}");
            }
        });
    }

    #[test]
    fn non_power_of_two_channel_counts_match_the_plain_conv() {
        // RGB-style first layers: the 3 input channels are padded to 4. At
        // a 512-slot row one group of 4 fits (B = 4); at 128 slots B = 1 and
        // the layer uploads 3 groups of one.
        let (h, w, f) = (8usize, 8usize, 3usize);
        for out_ch in [2usize, 5] {
            let mut rng = choco_prng::Blake3Rng::from_seed(b"rgb layer");
            let (input, weights) = seeded_layer(&mut rng, (3, out_ch, h * w, f * f));
            for (degree, groups) in [(1024usize, 1u32), (256, 3)] {
                let params = HeParams::bfv_insecure(degree, &[45, 45, 46], 20).unwrap();
                let row = degree / 2;
                let steps = conv_rotation_steps_multi(3, h, w, f, row).unwrap();
                let want = conv2d_plain_circular(&input, &weights, h, w, f, params.plain_modulus());
                let mut session = Session::<Bfv>::direct(&params, b"rgb", &steps).unwrap();
                let got = run_encrypted_conv_layer(&mut session, &input, &weights, h, w, f);
                assert_eq!(got.unwrap(), want, "N={degree}, 3->{out_ch}");
                assert_eq!(session.ledger().uploads, groups, "N={degree}, 3->{out_ch}");
            }
        }
    }

    /// Runs `run_encrypted_conv_layer` over mis-shaped caller input and
    /// returns the refusal, checking that nothing was encrypted or sent.
    fn refusal(input: &[Vec<u64>], weights: &[Vec<Vec<u64>>], side: usize, f: usize) -> String {
        let params = HeParams::bfv_insecure(256, &[45, 45, 46], 20).unwrap();
        let steps = conv_rotation_steps(2, side, side, 3);
        let mut session = Session::<Bfv>::direct(&params, b"mis-shaped", &steps).unwrap();
        let result = run_encrypted_conv_layer(&mut session, input, weights, side, side, f);
        assert_eq!(session.client_mut().encryption_count(), 0);
        assert_eq!(session.ledger().uploads, 0);
        match result {
            Err(TransportError::He(HeError::Mismatch(msg))) => msg,
            other => panic!("expected a Mismatch refusal, got {other:?}"),
        }
    }

    #[test]
    fn a_map_that_is_not_h_by_w_pixels_is_refused() {
        let weights = vec![vec![vec![1u64; 9]; 2]];
        for pixels in [15, 17, 0] {
            let input = vec![vec![1u64; 16], vec![1u64; pixels]];
            let msg = refusal(&input, &weights, 4, 3);
            assert!(msg.contains("channel 1 is not 4x4"), "{pixels}: {msg}");
        }
    }

    #[test]
    fn a_filter_whose_padding_exceeds_the_map_is_refused() {
        // A 7 × 7 filter pads 3 · (2 + 1) = 9 slots around a 4-pixel map.
        let input = vec![vec![1u64; 4]; 2];
        let weights = vec![vec![vec![1u64; 49]; 2]];
        let msg = refusal(&input, &weights, 2, 7);
        assert!(msg.contains("padding exceeds 2x2"), "{msg}");
    }

    #[test]
    fn weights_not_shaped_out_by_in_by_taps_are_refused() {
        let input = vec![vec![1u64; 16]; 2];
        let good = vec![vec![1u64; 9]; 2];
        let missing_tap = vec![vec![1u64; 9], vec![1u64; 8]];
        let extra_tap = vec![vec![1u64; 10], vec![1u64; 9]];
        let missing_channel = vec![vec![1u64; 9]];
        let extra_channel = vec![vec![1u64; 9]; 3];
        for bad in [missing_tap, extra_tap, missing_channel, extra_channel] {
            let weights = vec![good.clone(), bad];
            let msg = refusal(&input, &weights, 4, 3);
            assert!(msg.contains("weights of output 1 are not [2][9]"), "{msg}");
        }
    }

    #[test]
    fn a_warm_session_encodes_a_layer_once_per_weight_set() {
        // 4 → 6 channels of 8 × 8 at a 512-slot row (B = 4): two output
        // groups, 4 + 2 diagonals of 9 taps.
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 20).unwrap();
        let t = params.plain_modulus();
        let (h, w, f) = (8usize, 8usize, 3usize);
        let steps = conv_rotation_steps(4, h, w, f);
        let mut session = Session::<Bfv>::direct(&params, b"warm layer", &steps).unwrap();
        let mut rng = choco_prng::Blake3Rng::from_seed(b"warm layer inputs");
        let shape = (4, 6, h * w, f * f);
        let (_, weights) = seeded_layer(&mut rng, shape);
        let (_, retrained) = seeded_layer(&mut rng, shape);
        let packing = ConvPacking::new(4, h, w, f, 512).unwrap();
        let program = packing.program(1, &weights, t);
        let constants = program.ops().iter();
        let constants = constants.filter(|op| matches!(op, Op::Constant(_))).count();
        assert_eq!(constants, (4 + 2) * 9);

        let mut infer = |weights: &[Vec<Vec<u64>>]| {
            let (input, _) = seeded_layer(&mut rng, shape);
            let maps = run_encrypted_conv_layer(&mut session, &input, weights, h, w, f).unwrap();
            assert_eq!(maps, conv2d_plain_circular(&input, weights, h, w, f, t));
            let (programs, operands) = session.resident_counters();
            (programs.misses, operands.misses)
        };
        assert_eq!(infer(&weights), (1, constants as u64));
        // Second and third images: nothing compiled, nothing encoded.
        assert_eq!(infer(&weights), (1, constants as u64));
        assert_eq!(infer(&weights), (1, constants as u64));
        // New weights: one more program, its constants encoded once.
        assert_eq!(infer(&retrained), (2, 2 * constants as u64));
        assert_eq!(infer(&retrained), (2, 2 * constants as u64));
        assert_eq!(infer(&weights), (2, 2 * constants as u64));
    }

    #[test]
    fn lenet_layer_programs_rotate_only_by_conv_rotation_steps() {
        // `lenet_direct`'s conv1 (1 → 4 at 16 × 16) and conv2 (4 → 8 at
        // 8 × 8), f = 5, at paper set B: each one kernel call, and every
        // rotation the program makes has a key in the layer's step list.
        let params = HeParams::set_b();
        let (row, t) = (params.degree() / 2, params.plain_modulus());
        for (in_ch, out_ch, side) in [(1usize, 4usize, 16usize), (4, 8, 8)] {
            let packing = ConvPacking::new(in_ch, side, side, 5, row).unwrap();
            let weights = vec![vec![vec![1u64; 25]; in_ch]; out_ch];
            let compiled = packing.compile_layer(1, &weights, t).unwrap();
            assert_eq!(compiled.fused_bundles(), 1);
            let provisioned = conv_rotation_steps(in_ch, side, side, 5);
            for step in compiled.rotation_steps() {
                assert!(
                    provisioned.contains(&step),
                    "{in_ch}->{out_ch}: rotation {step} has no key"
                );
            }
        }
    }

    #[test]
    fn a_channel_wider_than_the_row_is_refused() {
        // 16 × 16 under a 5 × 5 filter packs 324 slots: a 512-slot stride,
        // wider than a 256-slot row.
        let err = conv_rotation_steps_multi(2, 16, 16, 5, 256).unwrap_err();
        assert!(
            matches!(err, HeError::Mismatch(ref m) if m.contains("fit a ciphertext row")),
            "{err}"
        );
        assert_eq!(
            conv_rotation_steps_multi(2, 16, 16, 5, 512).unwrap(),
            conv_rotation_steps(1, 16, 16, 5)
        );
    }

    #[test]
    fn benchmark_conv_shapes_keep_a_decryption_margin_at_set_b() {
        // `lenet_direct`'s conv1 (1 → 4 at 16 × 16) and conv2 (4 → 8 at
        // 8 × 8), f = 5, at paper set B: one output group each, whose
        // ciphertext must decrypt with room to spare.
        let params = HeParams::set_b();
        let t = params.plain_modulus();
        for (in_ch, out_ch, side) in [(1usize, 4usize, 16usize), (4, 8, 8)] {
            let steps = conv_rotation_steps(in_ch, side, side, 5);
            let mut session = Session::<Bfv>::direct(&params, b"set b margin", &steps).unwrap();
            let mut rng = choco_prng::Blake3Rng::from_seed(b"set b margin inputs");
            for input_no in 0..8 {
                let (input, weights) = seeded_layer(&mut rng, (in_ch, out_ch, side * side, 25));
                let mut layer = ResumableConvLayer::new(&input, &weights, side, side, 5).unwrap();
                layer.run(&mut session).unwrap();
                let [reply] = layer.replies.as_slice() else {
                    panic!("{in_ch}->{out_ch}: not one output group");
                };
                let budget = session.client_mut().health(reply);
                assert!(
                    budget >= 7.0,
                    "{in_ch}->{out_ch} input {input_no}: {budget:.1} bits left"
                );
                let want = conv2d_plain_circular(&input, &weights, side, side, 5, t);
                assert_eq!(layer.maps(), want);
            }
        }
    }
}
