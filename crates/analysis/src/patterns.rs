//! Cross-section pattern census — the Fig. 10 comparison.
//!
//! "In the experiment as well as the simulation, the phases arrange in
//! similar patterns as chained brick-like structures that are connected or
//! form ring-like structures" (Sec. 5.2, Fig. 10 annotations: *ring*,
//! *connection*, *chain*). This module classifies the connected components
//! of each solid phase in a cross-section perpendicular to the growth
//! direction into those classes, giving the quantitative census used to
//! compare against micrographs.

use crate::ccl::{label_2d, Labels};
use eutectica_core::state::BlockState;

/// Shape class of one lamella cross-section.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShapeClass {
    /// Closed loop enclosing another phase.
    Ring,
    /// Branched or bent structure joining several lamellae.
    Connection,
    /// Elongated straight lamella section.
    Chain,
    /// Compact brick-like section.
    Brick,
}

/// Classification census of one cross-section of one phase.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PatternCensus {
    /// Ring-like components.
    pub rings: usize,
    /// Connections (branched/bent components).
    pub connections: usize,
    /// Chains (elongated straight components).
    pub chains: usize,
    /// Compact bricks.
    pub bricks: usize,
}

impl PatternCensus {
    /// Total classified components.
    pub fn total(&self) -> usize {
        self.rings + self.connections + self.chains + self.bricks
    }

    fn add(&mut self, c: ShapeClass) {
        match c {
            ShapeClass::Ring => self.rings += 1,
            ShapeClass::Connection => self.connections += 1,
            ShapeClass::Chain => self.chains += 1,
            ShapeClass::Brick => self.bricks += 1,
        }
    }
}

/// Classify one labeled component of a 2-D mask.
///
/// * **Ring**: the component encloses a hole (a background component not
///   connected to the image border).
/// * **Connection**: poor oriented-box fill (< 0.75): bent or branched.
/// * **Chain**: principal-axis aspect ratio ≥ 3.
/// * **Brick**: everything else (compact).
fn classify_component(
    labels: &Labels,
    dims: [usize; 2],
    component: u32,
    min_size: usize,
) -> Option<ShapeClass> {
    let [nx, ny] = dims;
    let pixels: Vec<(usize, usize)> = (0..nx * ny)
        .filter(|&i| labels.labels[i] == component)
        .map(|i| (i % nx, i / nx))
        .collect();
    if pixels.len() < min_size {
        return None;
    }

    // Hole detection: label the complement (non-periodic); any complement
    // component that never touches the image border and is 4-adjacent to
    // this component is an enclosed hole.
    let comp_mask: Vec<bool> = (0..nx * ny)
        .map(|i| labels.labels[i] != component)
        .collect();
    let holes = label_2d(&comp_mask, dims, [false, false]);
    let mut touches_border = vec![false; holes.count + 1];
    for y in 0..ny {
        for x in 0..nx {
            if x == 0 || y == 0 || x == nx - 1 || y == ny - 1 {
                let l = holes.labels[y * nx + x];
                if l != 0 {
                    touches_border[l as usize] = true;
                }
            }
        }
    }
    let mut adjacent_hole = false;
    'outer: for &(x, y) in &pixels {
        for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
            let (qx, qy) = (x as i64 + dx, y as i64 + dy);
            if qx < 0 || qy < 0 || qx >= nx as i64 || qy >= ny as i64 {
                continue;
            }
            let l = holes.labels[qy as usize * nx + qx as usize];
            if l != 0 && !touches_border[l as usize] {
                adjacent_hole = true;
                break 'outer;
            }
        }
    }
    if adjacent_hole {
        return Some(ShapeClass::Ring);
    }

    // Second moments (periodic-aware centering is skipped; components that
    // wrap are recentered by the minimal-image trick around the first pixel).
    let (x0, y0) = pixels[0];
    let wrap = |d: f64, n: f64| -> f64 {
        let mut d = d;
        if d > n / 2.0 {
            d -= n;
        }
        if d < -n / 2.0 {
            d += n;
        }
        d
    };
    let rel: Vec<(f64, f64)> = pixels
        .iter()
        .map(|&(x, y)| {
            (
                wrap(x as f64 - x0 as f64, nx as f64),
                wrap(y as f64 - y0 as f64, ny as f64),
            )
        })
        .collect();
    let n = rel.len() as f64;
    let (mx, my) = (
        rel.iter().map(|p| p.0).sum::<f64>() / n,
        rel.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let (mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0);
    for &(x, y) in &rel {
        let (dx, dy) = (x - mx, y - my);
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    sxx /= n;
    syy /= n;
    sxy /= n;
    // Eigenvalues of the 2×2 covariance.
    let tr = sxx + syy;
    let det = sxx * syy - sxy * sxy;
    let disc = (tr * tr / 4.0 - det).max(0.0).sqrt();
    let l1 = (tr / 2.0 + disc).max(1e-12);
    let l2 = (tr / 2.0 - disc).max(1e-12);
    let aspect = (l1 / l2).sqrt();
    // Oriented-rectangle fill: a uniform a×b rectangle has λ = (a², b²)/12.
    let rect_area = 12.0 * (l1 * l2).sqrt();
    let fill = pixels.len() as f64 / rect_area.max(1.0);

    if fill < 0.75 && pixels.len() >= 12 {
        Some(ShapeClass::Connection)
    } else if aspect >= 3.0 {
        Some(ShapeClass::Chain)
    } else {
        Some(ShapeClass::Brick)
    }
}

/// Census of one solid phase in the cross-section at total z-coordinate `z`
/// of a block (periodic x/y, threshold φ > 0.5, components of fewer than
/// `min_size` cells ignored).
pub fn census_slice(state: &BlockState, phase: usize, z: usize, min_size: usize) -> PatternCensus {
    let d = state.dims;
    let g = d.ghost;
    let (nx, ny) = (d.nx, d.ny);
    let mask: Vec<bool> = (0..nx * ny)
        .map(|i| {
            let (x, y) = (i % nx, i / nx);
            state.phi_src.at(phase, x + g, y + g, z) > 0.5
        })
        .collect();
    let labels = label_2d(&mask, [nx, ny], [true, true]);
    let mut census = PatternCensus::default();
    for c in 1..=labels.count as u32 {
        if let Some(class) = classify_component(&labels, [nx, ny], c, min_size) {
            census.add(class);
        }
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels_of(mask: &[bool], dims: [usize; 2]) -> Labels {
        label_2d(mask, dims, [false, false])
    }

    #[test]
    fn ring_is_detected() {
        let n = 16;
        let mut mask = vec![false; n * n];
        for y in 0..n {
            for x in 0..n {
                let on = (3..=10).contains(&x)
                    && (3..=10).contains(&y)
                    && !((5..=8).contains(&x) && (5..=8).contains(&y));
                mask[y * n + x] = on;
            }
        }
        let l = labels_of(&mask, [n, n]);
        assert_eq!(l.count, 1);
        assert_eq!(classify_component(&l, [n, n], 1, 4), Some(ShapeClass::Ring));
    }

    #[test]
    fn straight_bar_is_chain() {
        let n = 24;
        let mut mask = vec![false; n * n];
        for y in 10..13 {
            for x in 2..22 {
                mask[y * n + x] = true;
            }
        }
        let l = labels_of(&mask, [n, n]);
        assert_eq!(
            classify_component(&l, [n, n], 1, 4),
            Some(ShapeClass::Chain)
        );
    }

    #[test]
    fn square_is_brick() {
        let n = 16;
        let mut mask = vec![false; n * n];
        for y in 4..10 {
            for x in 4..10 {
                mask[y * n + x] = true;
            }
        }
        let l = labels_of(&mask, [n, n]);
        assert_eq!(
            classify_component(&l, [n, n], 1, 4),
            Some(ShapeClass::Brick)
        );
    }

    #[test]
    fn l_shape_is_connection() {
        let n = 24;
        let mut mask = vec![false; n * n];
        for y in 2..20 {
            for x in 2..5 {
                mask[y * n + x] = true;
            }
        }
        for x in 2..20 {
            for y in 17..20 {
                mask[y * n + x] = true;
            }
        }
        let l = labels_of(&mask, [n, n]);
        assert_eq!(
            classify_component(&l, [n, n], 1, 4),
            Some(ShapeClass::Connection)
        );
    }

    #[test]
    fn small_components_filtered() {
        let n = 8;
        let mut mask = vec![false; n * n];
        mask[0] = true;
        let l = labels_of(&mask, [n, n]);
        assert_eq!(classify_component(&l, [n, n], 1, 4), None);
    }

    #[test]
    fn census_counts_lamellae_in_scenario_state() {
        use eutectica_blockgrid::GridDims;
        use eutectica_core::regions::{build_scenario, Scenario};
        let s = build_scenario(Scenario::Solid, GridDims::cube(24));
        let mut total = 0;
        for phase in 0..3 {
            let c = census_slice(&s, phase, 12, 4);
            total += c.total();
            // x-lamellae appear as elongated structures (chains) or wrapped
            // bands; nothing should be classified as a ring.
            assert_eq!(c.rings, 0, "phase {phase}: {c:?}");
        }
        assert!(total >= 3, "no lamellae found in solid scenario");
    }
}
