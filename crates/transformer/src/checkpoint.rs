//! Weight checkpointing: a small self-describing binary format for saving
//! and restoring [`EncoderWeights`] (and through them, whole models).
//!
//! Format (little-endian):
//!
//! ```text
//! magic  "XFCK"            4 bytes
//! version u32              currently 2
//! count   u32              number of tensors
//! per tensor:
//!   name_len u32, name bytes (UTF-8)
//!   rank u32
//!   per axis: name u8 (ASCII), size u64
//!   data: len·f32 little-endian
//! ```
//!
//! No external serialization dependency is needed; round-trips are exact
//! because `f32` bits are written verbatim. Version 2 stores the Q, K and V
//! projections as the one stacked `w_qkv`; a version 1 file, which named
//! them `wq`, `wk` and `wv`, is refused.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use xform_tensor::{Shape, Tensor};

use crate::params::EncoderWeights;

const MAGIC: &[u8; 4] = b"XFCK";
const VERSION: u32 = 2;

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a checkpoint or is corrupt.
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes named tensors to `w` in checkpoint format.
///
/// # Errors
///
/// Returns an error on I/O failure.
pub fn write_tensors<W: Write>(
    w: &mut W,
    tensors: &[(&str, &Tensor)],
) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u32(w, tensors.len() as u32)?;
    for (name, t) in tensors {
        write_u32(w, name.len() as u32)?;
        w.write_all(name.as_bytes())?;
        write_u32(w, t.shape().rank() as u32)?;
        for (a, &n) in t.shape().axes().iter().zip(t.shape().sizes()) {
            w.write_all(&[a.name() as u8])?;
            write_u64(w, n as u64)?;
        }
        // write in logical row-major order so layout never leaks into files
        let mut idx = vec![0usize; t.shape().rank()];
        loop {
            w.write_all(&t.at(&idx).to_le_bytes())?;
            if !t.advance(&mut idx) {
                break;
            }
        }
    }
    Ok(())
}

/// Reads named tensors from `r` (row-major layouts).
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] for malformed files.
pub fn read_tensors<R: Read>(r: &mut R) -> Result<Vec<(String, Tensor)>, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version} (this build reads version {VERSION})"
        )));
    }
    let count = read_u32(r)?;
    if count > 1 << 20 {
        return Err(CheckpointError::Format("implausible tensor count".into()));
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name_len = read_u32(r)? as usize;
        if name_len > 4096 {
            return Err(CheckpointError::Format("implausible name length".into()));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| CheckpointError::Format("name is not UTF-8".into()))?;
        let rank = read_u32(r)? as usize;
        if rank > 16 {
            return Err(CheckpointError::Format("implausible rank".into()));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            let mut c = [0u8; 1];
            r.read_exact(&mut c)?;
            let n = read_u64(r)? as usize;
            dims.push((c[0] as char, n));
        }
        let shape =
            Shape::new(dims).map_err(|e| CheckpointError::Format(format!("bad shape: {e}")))?;
        let len = shape.num_elements();
        if len > 1 << 30 {
            return Err(CheckpointError::Format("implausible tensor size".into()));
        }
        let mut data = vec![0f32; len];
        for v in &mut data {
            let mut b = [0u8; 4];
            r.read_exact(&mut b)?;
            *v = f32::from_le_bytes(b);
        }
        let t = Tensor::from_vec(shape, data)
            .map_err(|e| CheckpointError::Format(format!("bad tensor: {e}")))?;
        out.push((name, t));
    }
    Ok(out)
}

impl EncoderWeights {
    /// Saves the weights to a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut w = BufWriter::new(File::create(path)?);
        let fields = self.fields();
        write_tensors(&mut w, &fields.each_ref().map(|(n, t)| (*n, &**t)))?;
        w.flush()?;
        Ok(())
    }

    /// Loads weights from a checkpoint file, matching tensors by name.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Format`] if a field is missing or has
    /// the wrong shape.
    pub fn load(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let mut r = BufReader::new(File::open(path)?);
        let tensors = read_tensors(&mut r)?;
        for (name, field) in self.map(|p| p.shape().clone(), |t| t.shape().clone()) {
            let (_, t) = tensors
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| CheckpointError::Format(format!("missing field `{name}`")))?;
            if t.shape() != &field {
                return Err(CheckpointError::Format(format!(
                    "shape mismatch for `{name}`: file {} vs model {field}",
                    t.shape(),
                )));
            }
            self.set_field(name, t).expect("a field of its own shape");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xform_dataflow::EncoderDims;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("xfck-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn weights_roundtrip_exactly() {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(1);
        let w = EncoderWeights::init(&dims, &mut rng);
        let path = tmp("roundtrip");
        w.save(&path).unwrap();
        let mut w2 = EncoderWeights::init(&dims, &mut rng); // different values
        w2.load(&path).unwrap();
        for ((n, a), (_, b)) in w.fields().iter().zip(w2.fields()) {
            assert_eq!(a.data(), b.data(), "field {n} not identical");
        }
        assert_eq!(
            w.w_qkv.data(),
            w2.w_qkv.data(),
            "the pack is the same words"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn layout_never_leaks_into_files() {
        // a tensor saved in a permuted layout reads back row-major with the
        // same logical values
        let shape = Shape::new([('a', 3), ('b', 4)]).unwrap();
        let t = Tensor::from_fn(shape.clone(), |i| (i[0] * 10 + i[1]) as f32);
        let permuted = t.relayout(&xform_tensor::Layout::from_axis_order(&shape, "ba").unwrap());
        let mut buf = Vec::new();
        write_tensors(&mut buf, &[("t", &permuted)]).unwrap();
        let back = read_tensors(&mut buf.as_slice()).unwrap();
        assert_eq!(back[0].1.max_abs_diff(&t).unwrap(), 0.0);
        assert_eq!(back[0].1.layout(), &xform_tensor::Layout::row_major(2));
    }

    #[test]
    fn rejects_corruption() {
        let mut buf = Vec::new();
        write_tensors(&mut buf, &[]).unwrap();
        buf[0] = b'Z'; // break magic
        assert!(matches!(
            read_tensors(&mut buf.as_slice()),
            Err(CheckpointError::Format(_))
        ));
        // truncated file
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(2);
        let w = EncoderWeights::init(&dims, &mut rng);
        let mut full = Vec::new();
        let fields = w.fields();
        write_tensors(&mut full, &fields.each_ref().map(|(n, t)| (*n, &**t))).unwrap();
        full.truncate(full.len() / 2);
        assert!(read_tensors(&mut full.as_slice()).is_err());
    }

    /// FNV-1a over a file's bytes.
    fn digest(bytes: &[u8]) -> u64 {
        (bytes.iter()).fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The bytes of seeded blocks' files, pinned (format 2): how a weight
    /// is stored in memory never reaches its file, and a load → save round
    /// trip writes the same bytes. The second block's projections have a
    /// partial last panel and more than two `KC` blocks of depth.
    #[test]
    fn seeded_files_are_pinned_and_round_trip_byte_for_byte() {
        let odd = EncoderDims {
            b: 1,
            j: 2,
            k: 2,
            h: 3,
            p: 5,
            i: 17,
            u: 2 * 256 + 3,
        };
        for (dims, pinned) in [
            (EncoderDims::tiny(), 0x87ff_51c4_d7b9_fb5b_u64),
            (odd, 0x4bea_43bd_6af9_b6dd_u64),
        ] {
            let w = EncoderWeights::init(&dims, &mut StdRng::seed_from_u64(7));
            let (path, again) = (tmp(&format!("pinned-{}", dims.u)), tmp("again"));
            w.save(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(digest(&bytes), pinned, "{:#018x}", digest(&bytes));
            let mut back = EncoderWeights::init(&dims, &mut StdRng::seed_from_u64(8));
            back.load(&path).unwrap();
            back.save(&again).unwrap();
            assert!(std::fs::read(&again).unwrap() == bytes, "u = {}", dims.u);
            std::fs::remove_file(path).ok();
            std::fs::remove_file(again).ok();
        }
    }

    /// A version 1 file stored `wq`, `wk` and `wv` apart: refused by its
    /// version, before any tensor is read.
    #[test]
    fn a_version_1_file_is_refused_naming_its_version() {
        let mut v1 = MAGIC.to_vec();
        v1.extend(1u32.to_le_bytes());
        v1.extend(0u32.to_le_bytes());
        match read_tensors(&mut v1.as_slice()) {
            Err(CheckpointError::Format(m)) => {
                assert_eq!(m, "unsupported version 1 (this build reads version 2)");
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    /// A header whose extents multiply past `usize::MAX` (2³² × 2³²) is a
    /// format error, not an overflow panic or a tensor of no words.
    #[test]
    fn a_shape_whose_element_count_overflows_is_a_format_error() {
        let mut file = MAGIC.to_vec();
        for word in [VERSION, 1, 1] {
            file.extend(word.to_le_bytes());
        }
        file.push(b't');
        file.extend(2u32.to_le_bytes());
        for axis in [b'a', b'b'] {
            file.push(axis);
            file.extend((1u64 << 32).to_le_bytes());
        }
        match read_tensors(&mut file.as_slice()) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("bad shape"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(3);
        let w = EncoderWeights::init(&dims, &mut rng);
        let path = tmp("mismatch");
        w.save(&path).unwrap();
        let other = EncoderDims {
            u: dims.u + 1,
            ..dims
        };
        let mut w2 = EncoderWeights::init(&other, &mut rng);
        assert!(matches!(w2.load(&path), Err(CheckpointError::Format(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn training_resumes_from_checkpoint() {
        use crate::model::{copy_task_batch, BlockKind, ModelConfig, TransformerModel};
        let config = ModelConfig {
            dims: EncoderDims::tiny(),
            layers: 2,
            vocab: 7,
            block: BlockKind::Encoder,
            dropout_p: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = TransformerModel::init(config, &mut rng).unwrap();
        for _ in 0..5 {
            let (tokens, targets) = copy_task_batch(&config, &mut rng);
            let acts = model.forward(&tokens, &mut rng).unwrap();
            let grads = model.backward(&tokens, &targets, &acts).unwrap();
            model.sgd_step(&grads, 0.05);
        }
        let path = tmp("resume");
        model.blocks[0].save(&path).unwrap();
        let mut restored = EncoderWeights::init(&config.dims, &mut StdRng::seed_from_u64(99));
        restored.load(&path).unwrap();
        let trained = model.blocks[0].global_norm();
        assert!((restored.global_norm() - trained).abs() < 1e-5);
        std::fs::remove_file(path).ok();
    }
}
