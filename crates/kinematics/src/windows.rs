//! Sliding-window extraction (Equation 2: input `x_t = (x_t .. x_{t+w})`
//! with window `w` and stride `s`), both offline (for training) and online
//! (for the streaming monitor).

use nn::Mat;
use serde::{Deserialize, Serialize};

/// Sliding-window parameters. The paper uses `w = 5, s = 1` for Suturing and
/// `w = 10, s = 1` for Block Transfer error classifiers (Tables V/VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Window width in frames.
    pub width: usize,
    /// Stride between consecutive windows.
    pub stride: usize,
}

impl WindowConfig {
    /// Creates a window configuration.
    ///
    /// # Panics
    ///
    /// Panics if width or stride is zero.
    pub fn new(width: usize, stride: usize) -> Self {
        assert!(width > 0, "window width must be positive");
        assert!(stride > 0, "window stride must be positive");
        Self { width, stride }
    }

    /// Start indices of all complete windows over a stream of `len` frames.
    pub fn starts(&self, len: usize) -> impl Iterator<Item = usize> + '_ {
        let last = len.checked_sub(self.width);
        (0..=last.unwrap_or(0))
            .step_by(self.stride)
            .take_while(move |_| last.is_some())
            .filter(move |&s| s + self.width <= len)
    }
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self { width: 5, stride: 1 }
    }
}

/// Extracts `(window, label)` pairs from a `(frames, features)` matrix; the
/// label of a window is the label of its **last** frame (the frame the
/// online monitor is classifying "now").
///
/// # Panics
///
/// Panics if `labels.len() != features.rows()`.
pub fn windows_with_labels(
    features: &Mat,
    labels: &[usize],
    cfg: WindowConfig,
) -> Vec<(Mat, usize)> {
    assert_eq!(labels.len(), features.rows(), "labels/features length mismatch");
    cfg.starts(features.rows())
        .map(|s| {
            let end = s + cfg.width;
            (features.slice_rows(s, end), labels[end - 1])
        })
        .collect()
}

/// Extracts `(window, frame_index_of_last_frame)` pairs — used when replaying
/// a demonstration through the online monitor while keeping frame alignment.
pub fn windows_with_positions(features: &Mat, cfg: WindowConfig) -> Vec<(Mat, usize)> {
    cfg.starts(features.rows())
        .map(|s| {
            let end = s + cfg.width;
            (features.slice_rows(s, end), end - 1)
        })
        .collect()
}

/// An online window buffer that yields a `(width, features)` window once
/// enough frames have been pushed — the streaming counterpart of
/// [`windows_with_labels`].
///
/// The window is kept materialized as one contiguous [`Mat`] that is handed
/// out by reference, so pushing a frame performs **no heap allocation**: the
/// buffer shifts rows with a `memmove` and overwrites the last row. (For the
/// window sizes the monitor uses — tens of frames × tens of features — the
/// shift is cheaper than the pointer chasing of a deque of rows, and the
/// network consumes the window as a contiguous matrix anyway.)
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    width: usize,
    dims: usize,
    filled: usize,
    window: Mat,
}

impl SlidingWindow {
    /// Creates a buffer for windows of `width` frames of `dims` features.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `dims == 0`.
    pub fn new(width: usize, dims: usize) -> Self {
        assert!(width > 0 && dims > 0, "width and dims must be positive");
        Self { width, dims, filled: 0, window: Mat::zeros(width, dims) }
    }

    /// Pushes a frame; returns the current window once the buffer is full.
    /// The returned reference stays valid until the next `push`.
    ///
    /// # Panics
    ///
    /// Panics if the frame width does not match `dims`.
    // lint: hot-path
    pub fn push(&mut self, frame: &[f32]) -> Option<&Mat> {
        assert_eq!(frame.len(), self.dims, "frame width mismatch");
        if self.filled == self.width {
            // Slide: drop the oldest row, append the new one.
            self.window.as_mut_slice().copy_within(self.dims.., 0);
            self.window.row_mut(self.width - 1).copy_from_slice(frame);
            Some(&self.window)
        } else {
            self.window.row_mut(self.filled).copy_from_slice(frame);
            self.filled += 1;
            if self.filled == self.width {
                Some(&self.window)
            } else {
                None
            }
        }
    }

    /// The current window, if warm (full).
    // lint: hot-path
    pub fn current(&self) -> Option<&Mat> {
        if self.filled == self.width {
            Some(&self.window)
        } else {
            None
        }
    }

    /// Number of frames currently buffered.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Clears the buffer (e.g. between demonstrations).
    // lint: hot-path
    pub fn clear(&mut self) {
        self.filled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Mat {
        Mat::from_vec(rows, cols, (0..rows * cols).map(|i| i as f32).collect())
    }

    #[test]
    fn starts_cover_stream_with_stride() {
        let cfg = WindowConfig::new(3, 2);
        let starts: Vec<usize> = cfg.starts(8).collect();
        assert_eq!(starts, vec![0, 2, 4]);
    }

    #[test]
    fn starts_empty_when_stream_shorter_than_window() {
        let cfg = WindowConfig::new(5, 1);
        assert_eq!(cfg.starts(3).count(), 0);
    }

    #[test]
    fn windows_take_last_frame_label() {
        let m = ramp(6, 2);
        let labels = [0, 0, 1, 1, 2, 2];
        let w = windows_with_labels(&m, &labels, WindowConfig::new(3, 1));
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].1, 1); // frames 0..3, last label = labels[2]
        assert_eq!(w[3].1, 2);
        assert_eq!(w[0].0.shape(), (3, 2));
        assert_eq!(w[0].0.row(0), m.row(0));
    }

    #[test]
    fn windows_with_positions_track_last_frame() {
        let m = ramp(5, 1);
        let w = windows_with_positions(&m, WindowConfig::new(2, 1));
        let pos: Vec<usize> = w.iter().map(|(_, p)| *p).collect();
        assert_eq!(pos, vec![1, 2, 3, 4]);
    }

    #[test]
    fn sliding_window_fills_then_slides() {
        let mut sw = SlidingWindow::new(3, 2);
        assert!(sw.push(&[0.0, 0.0]).is_none());
        assert!(sw.push(&[1.0, 1.0]).is_none());
        let w = sw.push(&[2.0, 2.0]).expect("full window");
        assert_eq!(w.row(0), &[0.0, 0.0]);
        assert_eq!(w.row(2), &[2.0, 2.0]);
        let w = sw.push(&[3.0, 3.0]).expect("slides");
        assert_eq!(w.row(0), &[1.0, 1.0]);
        assert_eq!(w.row(2), &[3.0, 3.0]);
    }

    #[test]
    fn sliding_window_matches_offline_windows() {
        let m = ramp(10, 3);
        let cfg = WindowConfig::new(4, 1);
        let offline = windows_with_positions(&m, cfg);
        let mut sw = SlidingWindow::new(4, 3);
        let mut online = Vec::new();
        for r in 0..m.rows() {
            if let Some(w) = sw.push(m.row(r)) {
                online.push((w.clone(), r));
            }
        }
        assert_eq!(offline, online);
    }

    #[test]
    fn clear_resets_buffer() {
        let mut sw = SlidingWindow::new(2, 1);
        let _ = sw.push(&[1.0]);
        sw.clear();
        assert!(sw.is_empty());
        assert!(sw.push(&[2.0]).is_none());
    }
}
