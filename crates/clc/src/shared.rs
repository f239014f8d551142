//! Global-buffer sharing and race/bounds helpers for the parallel
//! compiled engine ([`crate::ir`]): a raw-pointer view of the launch's
//! global buffers that every work-group thread can read and write, and
//! the bounds checks and race-table hooks each memory op runs, with the
//! reference interpreter's error values.

use crate::error::RuntimeError;
use crate::lower::CompiledKernel;
use crate::vm::{global_race_err, local_race_err, BufData, GlobalRaceTables, LocalBuf, RaceTable};

enum RawBuf {
    F32(*mut f32, usize),
    F64(*mut f64, usize),
    I32(*mut i32, usize),
}

/// Raw-pointer view of the launch's global buffers, shared across the
/// parallel group threads.
///
/// # Safety
///
/// Concurrent unsynchronised writes through these pointers are only
/// sound because distinct work-groups of a generated kernel write
/// disjoint global cells. That discipline is *validated*, not assumed:
/// when `detect_races` is on, every access first consults
/// [`GlobalRaceTables`], whose write slots are claimed with a
/// compare-and-swap — a second group writing the same cell errors before
/// its payload store, so write/write overlap never reaches the buffer.
/// (A read racing a first write can still observe either value in the
/// narrow window before detection; the launch still fails.) With
/// `detect_races` off the caller asserts disjointness.
pub(crate) struct SharedBufs {
    bufs: Vec<RawBuf>,
}

// SAFETY: the only field is the raw-pointer list, which points into
// buffers the launch borrows mutably for the whole parallel section;
// concurrent access through it follows the disjointness discipline
// documented on the type.
unsafe impl Send for SharedBufs {}
// SAFETY: as for `Send` above.
unsafe impl Sync for SharedBufs {}

impl SharedBufs {
    pub(crate) fn new(bufs: &mut [BufData]) -> SharedBufs {
        SharedBufs {
            bufs: bufs
                .iter_mut()
                .map(|b| match b {
                    BufData::F32(v) => RawBuf::F32(v.as_mut_ptr(), v.len()),
                    BufData::F64(v) => RawBuf::F64(v.as_mut_ptr(), v.len()),
                    BufData::I32(v) => RawBuf::I32(v.as_mut_ptr(), v.len()),
                })
                .collect(),
        }
    }

    pub(crate) fn len(&self, b: usize) -> usize {
        match self.bufs[b] {
            RawBuf::F32(_, n) | RawBuf::F64(_, n) | RawBuf::I32(_, n) => n,
        }
    }

    /// Bounds check identical to the reference interpreter's.
    pub(crate) fn check(
        &self,
        kernel: &CompiledKernel,
        buf: usize,
        idx: i64,
        width: u8,
    ) -> Result<usize, RuntimeError> {
        let len = self.len(buf);
        if idx < 0 || (idx as usize) + width as usize > len {
            return Err(RuntimeError::GlobalOob {
                buffer: kernel.checked.buffer_params[buf].name.clone(),
                index: idx,
                len,
            });
        }
        Ok(idx as usize)
    }

    // The typed loads and stores below share one contract.
    //
    // # Safety
    //
    // `i` must be below `self.len(b)` (callers derive it from
    // `SharedBufs::check`), and no other group may write the same cell
    // during the launch (see the type's safety note).

    pub(crate) unsafe fn ld_f32(&self, b: usize, i: usize) -> f32 {
        match self.bufs[b] {
            RawBuf::F32(p, _) => unsafe { *p.add(i) },
            _ => unreachable!("typed f32 load on non-f32 buffer"),
        }
    }

    pub(crate) unsafe fn ld_f64(&self, b: usize, i: usize) -> f64 {
        match self.bufs[b] {
            RawBuf::F64(p, _) => unsafe { *p.add(i) },
            _ => unreachable!("typed f64 load on non-f64 buffer"),
        }
    }

    pub(crate) unsafe fn ld_i32(&self, b: usize, i: usize) -> i32 {
        match self.bufs[b] {
            RawBuf::I32(p, _) => unsafe { *p.add(i) },
            _ => unreachable!("typed i32 load on non-i32 buffer"),
        }
    }

    pub(crate) unsafe fn st_f32(&self, b: usize, i: usize, v: f32) {
        match self.bufs[b] {
            RawBuf::F32(p, _) => unsafe { *p.add(i) = v },
            _ => unreachable!("typed f32 store on non-f32 buffer"),
        }
    }

    pub(crate) unsafe fn st_f64(&self, b: usize, i: usize, v: f64) {
        match self.bufs[b] {
            RawBuf::F64(p, _) => unsafe { *p.add(i) = v },
            _ => unreachable!("typed f64 store on non-f64 buffer"),
        }
    }

    pub(crate) unsafe fn st_i32(&self, b: usize, i: usize, v: i32) {
        match self.bufs[b] {
            RawBuf::I32(p, _) => unsafe { *p.add(i) = v },
            _ => unreachable!("typed i32 store on non-i32 buffer"),
        }
    }
}

pub(crate) fn g_race_r(
    kernel: &CompiledKernel,
    grace: Option<&GlobalRaceTables>,
    buf: usize,
    i: usize,
    width: u8,
    group: u32,
) -> Result<(), RuntimeError> {
    if let Some(g) = grace {
        if let Err((k, other)) = g.on_read(buf, i, width, group) {
            return Err(global_race_err(kernel, buf, k, group, other));
        }
    }
    Ok(())
}

pub(crate) fn g_race_w(
    kernel: &CompiledKernel,
    grace: Option<&GlobalRaceTables>,
    buf: usize,
    i: usize,
    width: u8,
    group: u32,
) -> Result<(), RuntimeError> {
    if let Some(g) = grace {
        if let Err((k, other)) = g.on_write(buf, i, width, group) {
            return Err(global_race_err(kernel, buf, k, group, other));
        }
    }
    Ok(())
}

pub(crate) fn l_check(
    kernel: &CompiledKernel,
    locals: &[LocalBuf],
    arr: usize,
    idx: i64,
    width: u8,
) -> Result<usize, RuntimeError> {
    let len = locals[arr].len();
    if idx < 0 || (idx as usize) + width as usize > len {
        return Err(RuntimeError::LocalOob {
            array: kernel.checked.local_arrays[arr].name.clone(),
            index: idx,
            len,
        });
    }
    Ok(idx as usize)
}

pub(crate) fn l_race_r(
    kernel: &CompiledKernel,
    races: &mut [RaceTable],
    arr: usize,
    i: usize,
    width: u8,
    wi: u32,
    phase: u32,
) -> Result<(), RuntimeError> {
    if let Some(rt) = races.get_mut(arr) {
        if let Err((k, writer, other)) = rt.on_read(i, width, wi, phase) {
            return Err(local_race_err(kernel, arr, k, writer, other));
        }
    }
    Ok(())
}

pub(crate) fn l_race_w(
    kernel: &CompiledKernel,
    races: &mut [RaceTable],
    arr: usize,
    i: usize,
    width: u8,
    wi: u32,
    phase: u32,
) -> Result<(), RuntimeError> {
    if let Some(rt) = races.get_mut(arr) {
        if let Err((k, writer, other)) = rt.on_write(i, width, wi, phase) {
            return Err(local_race_err(kernel, arr, k, writer, other));
        }
    }
    Ok(())
}
