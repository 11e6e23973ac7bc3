//! Layer checkpointing: serialisable weight bundles.
//!
//! A [`LayerCheckpoint`] captures every trainable tensor of an
//! [`crate::layer::MoeLayer`] — gate projections and expert
//! weights — as plain data with a JSON wire form, so training state
//! survives process restarts (and, in the paper's setting,
//! re-scheduling decisions: the checkpoint is schedule-independent
//! because the data plane is).
//!
//! On-disk durability is crash-safe: [`LayerCheckpoint::save`] writes a
//! temporary sibling file and renames it over the target, so a crash
//! mid-write leaves either the old checkpoint or the new one — never a
//! torn file. Restore rejects truncated or NaN/∞-bearing payloads with
//! [`MoeError::CorruptCheckpoint`] instead of loading garbage weights.

use std::path::Path;

use jsonio::Json;
use tensor::Tensor;

use crate::layer::MoeLayer;
use crate::{MoeError, Result};

/// All trainable weights of one MoE layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCheckpoint {
    /// The gate family the weights belong to (validated on restore).
    pub gate_name: String,
    /// Gate weights in [`crate::gate::Gate::export_weights`] order.
    pub gate: Vec<Tensor>,
    /// Per-expert weights in [`crate::expert::Expert::weights`] order.
    pub experts: Vec<Vec<Tensor>>,
}

impl LayerCheckpoint {
    /// Total parameters captured.
    pub fn num_params(&self) -> usize {
        self.gate.iter().map(Tensor::num_elements).sum::<usize>()
            + self
                .experts
                .iter()
                .flatten()
                .map(Tensor::num_elements)
                .sum::<usize>()
    }

    /// Serialises to JSON. Weights round-trip bit-exactly (the writer
    /// uses shortest round-trip float formatting).
    pub fn to_json(&self) -> String {
        let doc = Json::obj([
            ("gate_name", Json::from(self.gate_name.as_str())),
            (
                "gate",
                Json::Arr(self.gate.iter().map(tensor_to_json).collect()),
            ),
            (
                "experts",
                Json::Arr(
                    self.experts
                        .iter()
                        .map(|ws| Json::Arr(ws.iter().map(tensor_to_json).collect()))
                        .collect(),
                ),
            ),
        ]);
        doc.to_string().expect("checkpoint weights are finite")
    }

    /// Parses a checkpoint previously written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadInput`] on malformed JSON or tensor data.
    pub fn from_json(text: &str) -> Result<LayerCheckpoint> {
        let doc = Json::parse(text).map_err(bad_json)?;
        let gate_name = doc
            .get("gate_name")
            .and_then(Json::as_str)
            .map_err(bad_json)?;
        let gate = doc
            .get("gate")
            .and_then(Json::as_arr)
            .map_err(bad_json)?
            .iter()
            .map(tensor_from_json)
            .collect::<Result<Vec<_>>>()?;
        let experts = doc
            .get("experts")
            .and_then(Json::as_arr)
            .map_err(bad_json)?
            .iter()
            .map(|ws| {
                ws.as_arr()
                    .map_err(bad_json)?
                    .iter()
                    .map(tensor_from_json)
                    .collect::<Result<Vec<_>>>()
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(LayerCheckpoint {
            gate_name: gate_name.to_string(),
            gate,
            experts,
        })
    }

    /// Writes the checkpoint to `path` atomically: the JSON goes to a
    /// `<path>.tmp` sibling first, then a rename publishes it, so readers
    /// never observe a partially written file.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::CheckpointIo`] when the write or rename fails.
    pub fn save(&self, path: &Path) -> Result<()> {
        let io_err = |reason: std::io::Error| MoeError::CheckpointIo {
            path: path.display().to_string(),
            reason: reason.to_string(),
        };
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json()).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    /// Reads and validates a checkpoint previously written by
    /// [`Self::save`].
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::CheckpointIo`] when the file cannot be read
    /// and [`MoeError::CorruptCheckpoint`] when its contents are
    /// truncated, malformed, or carry non-finite weights.
    pub fn load(path: &Path) -> Result<LayerCheckpoint> {
        let text = std::fs::read_to_string(path).map_err(|e| MoeError::CheckpointIo {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_json(&text)
    }
}

fn tensor_to_json(t: &Tensor) -> Json {
    Json::obj([
        ("dims", Json::from(t.dims().to_vec())),
        ("data", Json::from(t.data().to_vec())),
    ])
}

fn tensor_from_json(value: &Json) -> Result<Tensor> {
    let dims = value
        .get("dims")
        .and_then(Json::as_arr)
        .map_err(bad_json)?
        .iter()
        .map(|d| d.as_usize().map_err(bad_json))
        .collect::<Result<Vec<_>>>()?;
    let data = value
        .get("data")
        .and_then(Json::as_arr)
        .map_err(bad_json)?
        .iter()
        .map(|v| v.as_f64().map(|f| f as f32).map_err(bad_json))
        .collect::<Result<Vec<_>>>()?;
    if let Some(bad) = data.iter().find(|v| !v.is_finite()) {
        return Err(MoeError::CorruptCheckpoint {
            reason: format!("non-finite weight {bad} in tensor of dims {dims:?}"),
        });
    }
    Tensor::from_vec(data, &dims).map_err(|e| MoeError::BadInput {
        expected: format!("valid tensor payload: {e}"),
        actual: dims,
    })
}

fn bad_json(e: jsonio::JsonError) -> MoeError {
    MoeError::CorruptCheckpoint {
        reason: format!("truncated or malformed checkpoint JSON: {e}"),
    }
}

impl MoeLayer {
    /// Captures the layer's trainable state.
    pub fn checkpoint(&self) -> LayerCheckpoint {
        LayerCheckpoint {
            gate_name: self.gate().name().to_string(),
            gate: self.gate().export_weights(),
            experts: self
                .experts()
                .iter()
                .map(|e| e.weights().into_iter().cloned().collect())
                .collect(),
        }
    }

    /// Restores a checkpoint into this layer.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadInput`] when the checkpoint's gate family,
    /// expert count, or any tensor shape disagrees with the layer.
    pub fn restore(&mut self, checkpoint: &LayerCheckpoint) -> Result<()> {
        if checkpoint.gate_name != self.gate().name() {
            return Err(MoeError::BadInput {
                expected: format!("gate {:?}", self.gate().name()),
                actual: vec![checkpoint.gate_name.len()],
            });
        }
        if checkpoint.experts.len() != self.experts().len() {
            return Err(MoeError::BadInput {
                expected: format!("{} expert weight sets", self.experts().len()),
                actual: vec![checkpoint.experts.len()],
            });
        }
        self.gate_mut().import_weights(&checkpoint.gate)?;
        for (expert, weights) in self.experts_mut().iter_mut().zip(&checkpoint.experts) {
            expert.import_weights(weights)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoeConfig;
    use tensor::TensorRng;

    fn config() -> MoeConfig {
        MoeConfig::builder()
            .batch_size(1)
            .seq_len(8)
            .embed_dim(8)
            .hidden_dim(16)
            .num_experts(3)
            .top_k(2)
            .no_drop()
            .build()
            .unwrap()
    }

    #[test]
    fn checkpoint_restore_reproduces_outputs() {
        let cfg = config();
        let mut rng = TensorRng::seed_from(1);
        let mut original = MoeLayer::gshard(&cfg, &mut rng).unwrap();
        let input = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);

        // train a few steps so the weights moved off init
        let mut route_rng = TensorRng::seed_from(0);
        for _ in 0..2 {
            let y = original.forward(&input, &mut route_rng).unwrap();
            let g = original.backward(&Tensor::ones(y.dims())).unwrap();
            original.apply_grads(&g, 0.05).unwrap();
        }
        let snapshot = original.checkpoint();
        let expect = original.forward(&input, &mut route_rng).unwrap();

        // a fresh layer with different init must reproduce after restore
        let mut other_rng = TensorRng::seed_from(999);
        let mut restored = MoeLayer::gshard(&cfg, &mut other_rng).unwrap();
        let before = restored.forward(&input, &mut route_rng).unwrap();
        assert!(
            !before.allclose(&expect, 1e-4),
            "different init must differ"
        );
        restored.restore(&snapshot).unwrap();
        let after = restored.forward(&input, &mut route_rng).unwrap();
        assert!(after.allclose(&expect, 1e-5));
    }

    #[test]
    fn checkpoint_survives_json_round_trip() {
        let cfg = config();
        let mut rng = TensorRng::seed_from(2);
        let layer = MoeLayer::sigmoid(&cfg, &mut rng).unwrap();
        let snapshot = layer.checkpoint();
        let json = snapshot.to_json();
        let back = LayerCheckpoint::from_json(&json).unwrap();
        assert_eq!(snapshot, back);
        assert_eq!(back.gate_name, "sigmoid");
        assert!(back.num_params() > 0);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(LayerCheckpoint::from_json("not json").is_err());
        assert!(LayerCheckpoint::from_json("{}").is_err());
        assert!(LayerCheckpoint::from_json(
            r#"{"gate_name":"g","gate":[{"dims":[2,2],"data":[1.0]}],"experts":[]}"#
        )
        .is_err());
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fsmoe-ckpt-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let cfg = config();
        let mut rng = TensorRng::seed_from(7);
        let layer = MoeLayer::gshard(&cfg, &mut rng).unwrap();
        let snap = layer.checkpoint();
        let path = temp_path("atomic.json");
        snap.save(&path).unwrap();
        // the temporary staging file must not outlive the rename
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "staging file must be renamed away"
        );
        let back = LayerCheckpoint::load(&path).unwrap();
        assert_eq!(snap, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = LayerCheckpoint::load(Path::new("/nonexistent/dir/ckpt.json")).unwrap_err();
        assert!(matches!(err, MoeError::CheckpointIo { .. }), "{err:?}");
    }

    #[test]
    fn load_rejects_truncated_file() {
        let cfg = config();
        let mut rng = TensorRng::seed_from(8);
        let snap = MoeLayer::gshard(&cfg, &mut rng).unwrap().checkpoint();
        let json = snap.to_json();
        let path = temp_path("truncated.json");
        // simulate a torn write: only half the bytes made it to disk
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        let err = LayerCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, MoeError::CorruptCheckpoint { .. }), "{err:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn from_json_rejects_non_finite_weights() {
        // 1e999 overflows f64 parsing to infinity; NaN can't appear in
        // JSON literals, so ∞ is the smuggling vector to guard.
        let doc = r#"{"gate_name":"g","gate":[{"dims":[1],"data":[1e999]}],"experts":[]}"#;
        let err = LayerCheckpoint::from_json(doc).unwrap_err();
        assert!(
            matches!(err, MoeError::CorruptCheckpoint { ref reason } if reason.contains("non-finite")),
            "{err:?}"
        );
    }

    #[test]
    fn restore_validates_compatibility() {
        let cfg = config();
        let mut rng = TensorRng::seed_from(3);
        let gshard = MoeLayer::gshard(&cfg, &mut rng).unwrap();
        let mut sigmoid = MoeLayer::sigmoid(&cfg, &mut rng).unwrap();
        // wrong gate family
        assert!(sigmoid.restore(&gshard.checkpoint()).is_err());
        // wrong expert count
        let bigger = MoeConfig::builder()
            .batch_size(1)
            .seq_len(8)
            .embed_dim(8)
            .hidden_dim(16)
            .num_experts(4)
            .top_k(2)
            .no_drop()
            .build()
            .unwrap();
        let mut big_layer = MoeLayer::sigmoid(&bigger, &mut rng).unwrap();
        assert!(big_layer.restore(&sigmoid.checkpoint()).is_err());
        // wrong shapes within a matching family
        let wide = MoeConfig::builder()
            .batch_size(1)
            .seq_len(8)
            .embed_dim(16)
            .hidden_dim(32)
            .num_experts(3)
            .top_k(2)
            .no_drop()
            .build()
            .unwrap();
        let mut wide_layer = MoeLayer::sigmoid(&wide, &mut rng).unwrap();
        assert!(wide_layer.restore(&sigmoid.checkpoint()).is_err());
    }

    #[test]
    fn expert_choice_checkpoint_round_trips() {
        let cfg = config();
        let mut rng = TensorRng::seed_from(4);
        let mut layer = MoeLayer::expert_choice(&cfg, &mut rng).unwrap();
        let snap = layer.checkpoint();
        assert_eq!(snap.gate.len(), 1);
        layer.restore(&snap).unwrap();
    }
}
