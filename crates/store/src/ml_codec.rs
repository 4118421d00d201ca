//! Codec for fitted regression models.
//!
//! Models are stored as a tagged union over the concrete engine types the
//! store understands: the random forest (the paper's winning engine), the
//! single CART tree, and the linear family (fixed-weight naïve models,
//! SGD, ridge and Bayesian ridge). Downcasting happens through
//! [`Regressor::as_any`]; engines without that hook (kNN, MLP, GP, …)
//! yield [`StoreError::Unsupported`] and the caller falls back to
//! refitting — a cache miss, never an incorrect result.
//!
//! Restored models predict **bitwise identically** to the originals:
//! only prediction-relevant state is consulted at predict time, and every
//! float is stored as its exact bit pattern.

use crate::codec::{Decoder, Encoder};
use crate::StoreError;
use autoax_ml::dataset::{Standardizer, TargetScaler};
use autoax_ml::engine::Regressor;
use autoax_ml::forest::RandomForest;
use autoax_ml::linear::{BayesianRidge, LinearFixed, Ridge, SgdLinear};
use autoax_ml::tree::{DecisionTree, NodeRepr, TreeConfig};

const TAG_FOREST: u8 = 1;
const TAG_TREE: u8 = 2;
const TAG_LINEAR_FIXED: u8 = 3;
const TAG_SGD: u8 = 4;
const TAG_RIDGE: u8 = 5;
const TAG_BAYESIAN_RIDGE: u8 = 6;

fn put_f64_slice(e: &mut Encoder, v: &[f64]) {
    e.put_len(v.len());
    for &x in v {
        e.put_f64(x);
    }
}

fn take_f64_vec(d: &mut Decoder<'_>) -> Result<Vec<f64>, StoreError> {
    let n = d.take_len()?;
    let mut v = Vec::new();
    for _ in 0..n {
        v.push(d.take_f64()?);
    }
    Ok(v)
}

fn put_tree_config(e: &mut Encoder, c: &TreeConfig) {
    e.put_u64(c.max_depth as u64);
    e.put_u64(c.min_samples_split as u64);
    e.put_u64(c.min_samples_leaf as u64);
    match c.max_features {
        Some(m) => {
            e.put_bool(true);
            e.put_u64(m as u64);
        }
        None => e.put_bool(false),
    }
    e.put_u64(c.seed);
}

fn take_tree_config(d: &mut Decoder<'_>) -> Result<TreeConfig, StoreError> {
    let max_depth = d.take_u64()? as usize;
    let min_samples_split = d.take_u64()? as usize;
    let min_samples_leaf = d.take_u64()? as usize;
    let max_features = if d.take_bool()? {
        Some(d.take_u64()? as usize)
    } else {
        None
    };
    let seed = d.take_u64()?;
    Ok(TreeConfig {
        max_depth,
        min_samples_split,
        min_samples_leaf,
        max_features,
        seed,
    })
}

fn put_tree(e: &mut Encoder, t: &DecisionTree) {
    put_tree_nodes(e, &t.config(), &t.export_nodes());
}

fn put_tree_nodes(e: &mut Encoder, config: &TreeConfig, nodes: &[NodeRepr]) {
    put_tree_config(e, config);
    e.put_len(nodes.len());
    for &n in nodes {
        match n {
            NodeRepr::Leaf { value } => {
                e.put_u8(0);
                e.put_f64(value);
            }
            NodeRepr::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                e.put_u8(1);
                e.put_u32(feature);
                e.put_f64(threshold);
                e.put_u32(left);
                e.put_u32(right);
            }
        }
    }
}

fn take_tree(d: &mut Decoder<'_>) -> Result<DecisionTree, StoreError> {
    let config = take_tree_config(d)?;
    let n = d.take_len()?;
    let mut nodes = Vec::new();
    for _ in 0..n {
        nodes.push(match d.take_u8()? {
            0 => NodeRepr::Leaf {
                value: d.take_f64()?,
            },
            1 => NodeRepr::Split {
                feature: d.take_u32()?,
                threshold: d.take_f64()?,
                left: d.take_u32()?,
                right: d.take_u32()?,
            },
            t => return Err(StoreError::Invalid(format!("bad tree node tag {t}"))),
        });
    }
    DecisionTree::from_nodes(config, &nodes)
        .map_err(|e| StoreError::Invalid(format!("tree rebuild: {e}")))
}

fn put_standardizer(e: &mut Encoder, s: &Standardizer) {
    put_f64_slice(e, s.means());
    put_f64_slice(e, s.stds());
}

fn take_standardizer(d: &mut Decoder<'_>) -> Result<Standardizer, StoreError> {
    let means = take_f64_vec(d)?;
    let stds = take_f64_vec(d)?;
    if means.len() != stds.len() {
        return Err(StoreError::Invalid(
            "scaler mean/std length mismatch".into(),
        ));
    }
    Ok(Standardizer::from_parts(means, stds))
}

/// Encodes a fitted regressor as a tagged payload.
///
/// # Errors
/// [`StoreError::Unsupported`] when the concrete engine type has no
/// serialization support (callers treat this as "do not cache").
pub fn put_regressor(e: &mut Encoder, r: &dyn Regressor) -> Result<(), StoreError> {
    let Some(any) = r.as_any() else {
        return Err(StoreError::Unsupported(
            "engine without serialization hook".into(),
        ));
    };
    if let Some(f) = any.downcast_ref::<RandomForest>() {
        e.put_u8(TAG_FOREST);
        e.put_u64(f.seed);
        put_tree_config(e, &f.tree_config);
        e.put_len(f.fitted_trees().len());
        for t in f.fitted_trees() {
            put_tree(e, t);
        }
        Ok(())
    } else if let Some(t) = any.downcast_ref::<DecisionTree>() {
        e.put_u8(TAG_TREE);
        put_tree(e, t);
        Ok(())
    } else if let Some(l) = any.downcast_ref::<LinearFixed>() {
        e.put_u8(TAG_LINEAR_FIXED);
        put_f64_slice(e, l.weights());
        Ok(())
    } else if let Some(s) = any.downcast_ref::<SgdLinear>() {
        e.put_u8(TAG_SGD);
        e.put_u64(s.seed);
        let (w, b) = s.fitted_parts();
        put_f64_slice(e, w);
        e.put_f64(b);
        Ok(())
    } else if let Some(r) = any.downcast_ref::<Ridge>() {
        let (s, y, w) = r
            .fitted_parts()
            .ok_or_else(|| StoreError::Unsupported("unfitted ridge model".into()))?;
        e.put_u8(TAG_RIDGE);
        e.put_f64(r.alpha);
        put_standardizer(e, s);
        let (ym, ys) = y.parts();
        e.put_f64(ym);
        e.put_f64(ys);
        put_f64_slice(e, w);
        Ok(())
    } else if let Some(br) = any.downcast_ref::<BayesianRidge>() {
        let (s, y, w) = br
            .fitted_parts()
            .ok_or_else(|| StoreError::Unsupported("unfitted bayesian ridge model".into()))?;
        e.put_u8(TAG_BAYESIAN_RIDGE);
        e.put_u64(br.max_iter as u64);
        put_standardizer(e, s);
        let (ym, ys) = y.parts();
        e.put_f64(ym);
        e.put_f64(ys);
        put_f64_slice(e, w);
        Ok(())
    } else {
        Err(StoreError::Unsupported(
            "engine type not covered by the model codec".into(),
        ))
    }
}

/// Decodes a regressor written by [`put_regressor`].
pub fn take_regressor(d: &mut Decoder<'_>) -> Result<Box<dyn Regressor>, StoreError> {
    Ok(match d.take_u8()? {
        TAG_FOREST => {
            let seed = d.take_u64()?;
            let tree_config = take_tree_config(d)?;
            let n = d.take_len()?;
            let mut trees = Vec::new();
            for _ in 0..n {
                trees.push(take_tree(d)?);
            }
            Box::new(RandomForest::from_fitted_parts(seed, tree_config, trees))
        }
        TAG_TREE => Box::new(take_tree(d)?),
        TAG_LINEAR_FIXED => Box::new(LinearFixed::new(take_f64_vec(d)?)),
        TAG_SGD => {
            let seed = d.take_u64()?;
            let w = take_f64_vec(d)?;
            let b = d.take_f64()?;
            Box::new(SgdLinear::from_fitted_parts(seed, w, b))
        }
        TAG_RIDGE => {
            let alpha = d.take_f64()?;
            let s = take_standardizer(d)?;
            let y = TargetScaler::from_parts(d.take_f64()?, d.take_f64()?);
            let w = take_f64_vec(d)?;
            Box::new(Ridge::from_fitted_parts(alpha, s, y, w))
        }
        TAG_BAYESIAN_RIDGE => {
            let max_iter = d.take_u64()? as usize;
            let s = take_standardizer(d)?;
            let y = TargetScaler::from_parts(d.take_f64()?, d.take_f64()?);
            let w = take_f64_vec(d)?;
            Box::new(BayesianRidge::from_fitted_parts(max_iter, s, y, w))
        }
        t => return Err(StoreError::Invalid(format!("bad regressor tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoax_ml::engine::EngineKind;
    use autoax_ml::linalg::Matrix;

    fn training_data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                vec![
                    ((i * 7) % 23) as f64 / 22.0,
                    ((i * 13) % 17) as f64 / 16.0,
                    ((i * 3) % 11) as f64 / 10.0,
                ]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 2.0 * r[0] + 3.0 * r[1] * r[1] - r[2])
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    fn round_trip(r: &dyn Regressor) -> Box<dyn Regressor> {
        let mut e = Encoder::new();
        put_regressor(&mut e, r).unwrap();
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let out = take_regressor(&mut d).unwrap();
        d.finish().unwrap();
        out
    }

    fn assert_bitwise_equal_predictions(a: &dyn Regressor, b: &dyn Regressor) {
        let (x, _) = training_data();
        for row in x.rows_iter() {
            assert_eq!(
                a.predict_row(row).to_bits(),
                b.predict_row(row).to_bits(),
                "prediction diverged on {row:?}"
            );
        }
    }

    #[test]
    fn random_forest_round_trips_bitwise() {
        let (x, y) = training_data();
        let mut f = RandomForest::new(7).with_trees(15);
        f.fit(&x, &y).unwrap();
        let rt = round_trip(&f);
        assert_bitwise_equal_predictions(&f, rt.as_ref());
    }

    #[test]
    fn every_supported_engine_round_trips_bitwise() {
        let (x, y) = training_data();
        for kind in [
            EngineKind::RandomForest,
            EngineKind::DecisionTree,
            EngineKind::BayesianRidge,
            EngineKind::StochasticGradientDescent,
        ] {
            let mut m = kind.make(3);
            m.fit(&x, &y).unwrap();
            let rt = round_trip(m.as_ref());
            assert_bitwise_equal_predictions(m.as_ref(), rt.as_ref());
        }
    }

    #[test]
    fn linear_fixed_and_ridge_round_trip() {
        let lf = LinearFixed::new(vec![1.0, -2.5, 0.0]);
        assert_bitwise_equal_predictions(&lf, round_trip(&lf).as_ref());
        let (x, y) = training_data();
        let mut r = Ridge::new(1e-4);
        r.fit(&x, &y).unwrap();
        assert_bitwise_equal_predictions(&r, round_trip(&r).as_ref());
    }

    /// A checksum-valid payload can carry a tree whose split points at
    /// itself; decoding refuses it, so no prediction walks it forever.
    #[test]
    fn a_tree_with_a_child_pointing_at_itself_fails_to_decode() {
        let (x, y) = training_data();
        let mut f = RandomForest::new(7).with_trees(3);
        f.fit(&x, &y).unwrap();
        let encode = |self_loop: bool| {
            let mut e = Encoder::new();
            e.put_u8(TAG_FOREST);
            e.put_u64(f.seed);
            put_tree_config(&mut e, &f.tree_config);
            e.put_len(f.fitted_trees().len());
            for (t, tree) in f.fitted_trees().iter().enumerate() {
                let mut nodes = tree.export_nodes();
                if self_loop && t == 1 {
                    let at = nodes
                        .iter()
                        .rposition(|n| matches!(n, NodeRepr::Split { .. }))
                        .expect("a split");
                    if let NodeRepr::Split { right, .. } = &mut nodes[at] {
                        *right = at as u32;
                    }
                }
                put_tree_nodes(&mut e, &tree.config(), &nodes);
            }
            e.into_bytes()
        };
        let intact = encode(false);
        let mut d = Decoder::new(&intact);
        assert_bitwise_equal_predictions(&f, take_regressor(&mut d).unwrap().as_ref());
        assert!(matches!(
            take_regressor(&mut Decoder::new(&encode(true))),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn unsupported_engine_is_reported_not_panicked() {
        let (x, y) = training_data();
        let mut m = EngineKind::KNeighbors.make(0);
        m.fit(&x, &y).unwrap();
        let mut e = Encoder::new();
        assert!(matches!(
            put_regressor(&mut e, m.as_ref()),
            Err(StoreError::Unsupported(_))
        ));
    }

    #[test]
    fn unfitted_ridge_is_unsupported() {
        let r = Ridge::new(1.0);
        let mut e = Encoder::new();
        assert!(matches!(
            put_regressor(&mut e, &r),
            Err(StoreError::Unsupported(_))
        ));
    }
}
