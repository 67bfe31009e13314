//! Einsum execution: compile → allocate → batched strided GEMM.
//!
//! Mirrors how the paper lowers every tensor contraction onto a cuBLAS
//! (batched) MMM call with leading dimensions: the contraction is compiled
//! to a [`ContractPlan`] over the operands' own strides, the output is
//! allocated in the requested layout, and the same driver the arena
//! interpreter runs ([`crate::into_ops::contract_into`]) multiplies through
//! the strided views of [`crate::matmul`] on the caller's thread. The
//! input layouts decide the access pattern, not a repacking pass; only an
//! operand whose axis groups do not collapse to strides is gathered first.

use crate::axes::{Axis, Shape};
use crate::einsum::EinsumSpec;
use crate::error::{Result, TensorError};
use crate::into_ops::{contract_into, ContractPlan};
use crate::layout::Layout;
use crate::tensor::Tensor;

/// Executes a one- or two-operand einsum, producing a row-major output.
///
/// # Errors
///
/// Returns an error if the spec fails to parse, the operand count does not
/// match the spec, shapes conflict, or the contraction does not map onto a
/// GEMM (see [`EinsumSpec::classify`]).
///
/// # Examples
///
/// ```
/// use xform_tensor::{einsum, Shape, Tensor};
/// let a = Tensor::from_fn(Shape::new([('i', 2), ('k', 3)]).unwrap(), |x| (x[0] + x[1]) as f32);
/// let b = Tensor::from_fn(Shape::new([('k', 3), ('j', 2)]).unwrap(), |x| (x[0] * x[1]) as f32);
/// let c = einsum("ik,kj->ij", &[&a, &b]).unwrap();
/// assert_eq!(c.shape().spec(), "ij");
/// ```
pub fn einsum(spec: &str, operands: &[&Tensor]) -> Result<Tensor> {
    let spec: EinsumSpec = spec.parse()?;
    match (spec.operands().len(), operands.len()) {
        (1, 1) => reduce(&spec, operands[0]),
        (2, 2) => {
            let rank = spec.output().len();
            contract(&spec, operands[0], operands[1], &Layout::row_major(rank))
        }
        (want, got) => Err(TensorError::ParseError(format!(
            "spec has {want} operands but {got} tensors were given"
        ))),
    }
}

/// Executes a two-operand contraction, writing the result in `out_layout`.
///
/// # Errors
///
/// Same conditions as [`einsum`].
pub fn contract(spec: &EinsumSpec, a: &Tensor, b: &Tensor, out_layout: &Layout) -> Result<Tensor> {
    let size_of = |ax: Axis| a.shape().size(ax).or_else(|_| b.shape().size(ax));
    let out_shape = Shape::new(
        spec.output()
            .iter()
            .map(|&ax| Ok((ax, size_of(ax)?)))
            .collect::<Result<Vec<_>>>()?,
    )?;
    if out_layout.rank() != out_shape.rank() {
        return Err(TensorError::LayoutRankMismatch {
            expected: out_shape.rank(),
            found: out_layout.rank(),
        });
    }
    let mut out = Tensor::zeros_with_layout(out_shape, *out_layout);
    let plan = ContractPlan::compile(
        spec,
        a.shape(),
        a.strides(),
        b.shape(),
        b.strides(),
        out.strides(),
    )?;
    let mut scratch = vec![0.0f32; plan.scratch_words()];
    contract_into(&plan, a.data(), b.data(), out.data_mut(), &mut scratch);
    Ok(out)
}

/// Executes a one-operand einsum (a pure reduction / transpose), writing a
/// row-major output. Labels absent from the output are summed.
///
/// # Errors
///
/// Returns an error if the spec is not one-operand or shapes disagree.
pub fn reduce(spec: &EinsumSpec, a: &Tensor) -> Result<Tensor> {
    if spec.operands().len() != 1 {
        return Err(TensorError::Unsupported(
            "reduce requires a one-operand spec".into(),
        ));
    }
    let labels = &spec.operands()[0];
    if labels.len() != a.shape().rank() {
        return Err(TensorError::ShapeMismatch {
            context: "einsum operand rank",
        });
    }
    let out_shape = Shape::new(
        spec.output()
            .iter()
            .map(|&ax| Ok((ax, a.shape().size(ax)?)))
            .collect::<Result<Vec<_>>>()?,
    )?;
    let mut out = Tensor::zeros(out_shape);
    let mut idx = vec![0usize; a.shape().rank()];
    let out_positions: Vec<usize> = spec
        .output()
        .iter()
        .map(|ax| a.shape().index_of(*ax).expect("validated"))
        .collect();
    let mut out_idx = vec![0usize; out_positions.len()];
    loop {
        for (o, &p) in out_idx.iter_mut().zip(&out_positions) {
            *o = idx[p];
        }
        let off = out.offset(&out_idx);
        out.data_mut()[off] += a.at(&idx);
        if !a.advance(&mut idx) {
            break;
        }
    }
    Ok(out)
}

/// Reference einsum evaluated by brute-force nested loops; the correctness
/// oracle for [`contract`] in tests.
///
/// # Errors
///
/// Returns an error for inconsistent shapes or specs.
pub fn naive_einsum(spec: &EinsumSpec, operands: &[&Tensor]) -> Result<Tensor> {
    if spec.operands().len() != operands.len() {
        return Err(TensorError::ParseError("operand count mismatch".into()));
    }
    // Collect every label and its size.
    let mut labels: Vec<(Axis, usize)> = Vec::new();
    for (ls, t) in spec.operands().iter().zip(operands) {
        if ls.len() != t.shape().rank() {
            return Err(TensorError::ShapeMismatch {
                context: "einsum operand rank",
            });
        }
        for &ax in ls {
            let n = t.shape().size(ax)?;
            match labels.iter().find(|(a, _)| *a == ax) {
                Some(&(_, m)) if m != n => return Err(TensorError::SizeConflict(ax)),
                Some(_) => {}
                None => labels.push((ax, n)),
            }
        }
    }
    let out_shape = Shape::new(
        spec.output()
            .iter()
            .map(|&ax| {
                labels
                    .iter()
                    .find(|(a, _)| *a == ax)
                    .map(|&(a, n)| (a, n))
                    .ok_or(TensorError::UnknownAxis(ax))
            })
            .collect::<Result<Vec<_>>>()?,
    )?;
    let mut out = Tensor::zeros(out_shape);

    let mut full = vec![0usize; labels.len()];
    let op_positions: Vec<Vec<usize>> = spec
        .operands()
        .iter()
        .map(|ls| {
            ls.iter()
                .map(|ax| labels.iter().position(|(a, _)| a == ax).expect("present"))
                .collect()
        })
        .collect();
    let out_positions: Vec<usize> = spec
        .output()
        .iter()
        .map(|ax| labels.iter().position(|(a, _)| a == ax).expect("present"))
        .collect();
    loop {
        let mut prod = 1.0f32;
        for (t, pos) in operands.iter().zip(&op_positions) {
            let idx: Vec<usize> = pos.iter().map(|&p| full[p]).collect();
            prod *= t.at(&idx);
        }
        let out_idx: Vec<usize> = out_positions.iter().map(|&p| full[p]).collect();
        let off = out.offset(&out_idx);
        out.data_mut()[off] += prod;
        // advance full index
        let mut done = true;
        for i in (0..full.len()).rev() {
            full[i] += 1;
            if full[i] < labels[i].1 {
                done = false;
                break;
            }
            full[i] = 0;
        }
        if done {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_tensor(spec: &str, sizes: &[(char, usize)], seed: u64) -> Tensor {
        let shape = Shape::from_spec(spec, sizes).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(shape, &Uniform::new(-1.0, 1.0), &mut rng)
    }

    #[test]
    fn contract_matches_naive_matmul() {
        let sizes = [('i', 5), ('k', 7), ('j', 4)];
        let a = rand_tensor("ik", &sizes, 1);
        let b = rand_tensor("kj", &sizes, 2);
        let spec: EinsumSpec = "ik,kj->ij".parse().unwrap();
        let fast = contract(&spec, &a, &b, &Layout::row_major(2)).unwrap();
        let slow = naive_einsum(&spec, &[&a, &b]).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn contract_matches_naive_on_mha_projection() {
        let sizes = [('p', 3), ('h', 2), ('i', 5), ('b', 2), ('j', 4)];
        let w = rand_tensor("phi", &sizes, 3);
        let x = rand_tensor("ibj", &sizes, 4);
        let spec: EinsumSpec = "phi,ibj->phbj".parse().unwrap();
        let fast = contract(&spec, &w, &x, &Layout::row_major(4)).unwrap();
        let slow = naive_einsum(&spec, &[&w, &x]).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn contract_matches_naive_on_batched_scores() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let kk = rand_tensor("phbk", &sizes, 5);
        let qq = rand_tensor("phbj", &sizes, 6);
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        let fast = contract(&spec, &kk, &qq, &Layout::row_major(4)).unwrap();
        let slow = naive_einsum(&spec, &[&kk, &qq]).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn contract_respects_input_layouts() {
        let sizes = [('i', 4), ('k', 6), ('j', 3)];
        let a = rand_tensor("ik", &sizes, 7);
        let b = rand_tensor("kj", &sizes, 8);
        let spec: EinsumSpec = "ik,kj->ij".parse().unwrap();
        let base = contract(&spec, &a, &b, &Layout::row_major(2)).unwrap();
        let a_t = a.relayout(&Layout::from_axis_order(a.shape(), "ki").unwrap());
        let b_t = b.relayout(&Layout::from_axis_order(b.shape(), "jk").unwrap());
        let got = contract(&spec, &a_t, &b_t, &Layout::row_major(2)).unwrap();
        assert!(got.max_abs_diff(&base).unwrap() < 1e-5);
    }

    #[test]
    fn contract_writes_requested_output_layout() {
        let sizes = [('i', 4), ('k', 6), ('j', 3)];
        let a = rand_tensor("ik", &sizes, 9);
        let b = rand_tensor("kj", &sizes, 10);
        let spec: EinsumSpec = "ik,kj->ij".parse().unwrap();
        let rm = contract(&spec, &a, &b, &Layout::row_major(2)).unwrap();
        let out_shape = rm.shape().clone();
        let cm = contract(
            &spec,
            &a,
            &b,
            &Layout::from_axis_order(&out_shape, "ji").unwrap(),
        )
        .unwrap();
        assert_eq!(cm.layout().spec(cm.shape()), "ji");
        assert!(cm.max_abs_diff(&rm).unwrap() < 1e-5);
    }

    #[test]
    fn reduce_sums_missing_labels() {
        let sizes = [('b', 2), ('j', 3), ('i', 4)];
        let a = rand_tensor("bji", &sizes, 11);
        let spec: EinsumSpec = "bji->i".parse().unwrap();
        let r = reduce(&spec, &a).unwrap();
        for i in 0..4 {
            let mut expect = 0.0;
            for b in 0..2 {
                for j in 0..3 {
                    expect += a.at(&[b, j, i]);
                }
            }
            assert!((r.at(&[i]) - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn einsum_dispatches_by_operand_count() {
        let sizes = [('i', 2), ('k', 3), ('j', 2)];
        let a = rand_tensor("ik", &sizes, 12);
        let b = rand_tensor("kj", &sizes, 13);
        assert!(einsum("ik,kj->ij", &[&a, &b]).is_ok());
        assert!(einsum("ik->i", &[&a]).is_ok());
        assert!(einsum("ik,kj->ij", &[&a]).is_err());
    }
}
