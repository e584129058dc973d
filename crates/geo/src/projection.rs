//! GPS ↔ local planar projections.
//!
//! The paper's error bound `ζ` is expressed in meters (e.g. `ζ = 40 m`),
//! while raw GPS fixes are degrees of latitude / longitude.  All algorithms
//! in this workspace operate on planar coordinates, so real GPS data has to
//! be projected into a local metric frame first.  For city-scale
//! trajectories an equirectangular projection around a reference latitude is
//! accurate to well below GPS noise, which is what [`LocalProjection`]
//! implements; [`haversine_distance`] is provided for validation.

use crate::point::Point;

/// Mean Earth radius in meters (IUGG value).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A raw GPS fix: longitude / latitude in degrees plus a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Longitude in degrees, positive east.
    pub lon: f64,
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Timestamp in seconds.
    pub t: f64,
}

impl GeoPoint {
    /// Creates a new GPS fix.
    #[inline]
    pub const fn new(lon: f64, lat: f64, t: f64) -> Self {
        Self { lon, lat, t }
    }
}

/// Great-circle distance between two GPS fixes, in meters.
pub fn haversine_distance(a: &GeoPoint, b: &GeoPoint) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * h.sqrt().asin()
}

/// An equirectangular projection centred on a reference GPS fix.
///
/// `x = R · Δlon · cos(lat₀)`, `y = R · Δlat` — the standard "local tangent
/// plane" approximation, exact enough (relative error `< 10⁻⁴` over tens of
/// kilometers) for trajectory simplification where `ζ` is meters to tens of
/// meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalProjection {
    origin: GeoPoint,
    cos_lat0: f64,
}

impl LocalProjection {
    /// Creates a projection centred on `origin`.
    pub fn new(origin: GeoPoint) -> Self {
        Self {
            origin,
            cos_lat0: origin.lat.to_radians().cos(),
        }
    }

    /// Creates a projection centred on the first fix of a slice, or on
    /// `(0, 0)` for an empty slice.
    pub fn from_first_fix(fixes: &[GeoPoint]) -> Self {
        Self::new(fixes.first().copied().unwrap_or_default())
    }

    /// The reference fix the projection is centred on.
    #[inline]
    pub fn origin(&self) -> GeoPoint {
        self.origin
    }

    /// Projects a GPS fix into the local planar frame (meters).
    #[inline]
    pub fn project(&self, g: &GeoPoint) -> Point {
        let x = (g.lon - self.origin.lon).to_radians() * EARTH_RADIUS_M * self.cos_lat0;
        let y = (g.lat - self.origin.lat).to_radians() * EARTH_RADIUS_M;
        Point { x, y, t: g.t }
    }

    /// Projects a whole slice of fixes.
    pub fn project_all(&self, fixes: &[GeoPoint]) -> Vec<Point> {
        fixes.iter().map(|g| self.project(g)).collect()
    }

    /// Inverse projection back to longitude / latitude degrees.
    #[inline]
    pub fn unproject(&self, p: &Point) -> GeoPoint {
        let lon = self.origin.lon + (p.x / (EARTH_RADIUS_M * self.cos_lat0)).to_degrees();
        let lat = self.origin.lat + (p.y / EARTH_RADIUS_M).to_degrees();
        GeoPoint { lon, lat, t: p.t }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distance() {
        // One degree of latitude is ~111.2 km.
        let a = GeoPoint::new(116.0, 39.0, 0.0);
        let b = GeoPoint::new(116.0, 40.0, 0.0);
        let d = haversine_distance(&a, &b);
        assert!((d - 111_195.0).abs() < 200.0, "got {d}");
        // Symmetric and zero on identical points.
        assert!((haversine_distance(&b, &a) - d).abs() < 1e-6);
        assert_eq!(haversine_distance(&a, &a), 0.0);
    }

    #[test]
    fn projection_roundtrip() {
        let origin = GeoPoint::new(116.397, 39.909, 0.0); // Beijing
        let proj = LocalProjection::new(origin);
        let g = GeoPoint::new(116.41, 39.92, 42.0);
        let p = proj.project(&g);
        let back = proj.unproject(&p);
        assert!((back.lon - g.lon).abs() < 1e-9);
        assert!((back.lat - g.lat).abs() < 1e-9);
        assert_eq!(back.t, 42.0);
    }

    #[test]
    fn projection_close_to_haversine() {
        let origin = GeoPoint::new(116.397, 39.909, 0.0);
        let proj = LocalProjection::new(origin);
        let g = GeoPoint::new(116.45, 39.95, 0.0);
        let planar = proj.project(&g).distance(&proj.project(&origin));
        let sphere = haversine_distance(&origin, &g);
        // Within 0.1% over ~6 km.
        assert!(
            (planar - sphere).abs() / sphere < 1e-3,
            "planar {planar}, haversine {sphere}"
        );
    }

    #[test]
    fn origin_projects_to_zero() {
        let origin = GeoPoint::new(10.0, 50.0, 7.0);
        let proj = LocalProjection::new(origin);
        let p = proj.project(&origin);
        assert!(p.x.abs() < 1e-9 && p.y.abs() < 1e-9);
        assert_eq!(p.t, 7.0);
    }

    #[test]
    fn project_all_and_from_first_fix() {
        let fixes = vec![
            GeoPoint::new(116.0, 39.0, 0.0),
            GeoPoint::new(116.001, 39.0, 10.0),
            GeoPoint::new(116.002, 39.001, 20.0),
        ];
        let proj = LocalProjection::from_first_fix(&fixes);
        let pts = proj.project_all(&fixes);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].x.abs() < 1e-9);
        assert!(pts[1].x > 50.0 && pts[1].x < 120.0); // ~86 m at lat 39
        assert_eq!(pts[2].t, 20.0);
        // Empty slice default.
        let dflt = LocalProjection::from_first_fix(&[]);
        assert_eq!(dflt.origin(), GeoPoint::default());
    }

    #[test]
    fn eastward_distance_shrinks_with_latitude() {
        let at_equator = LocalProjection::new(GeoPoint::new(0.0, 0.0, 0.0));
        let at_60 = LocalProjection::new(GeoPoint::new(0.0, 60.0, 0.0));
        let east_eq = at_equator.project(&GeoPoint::new(0.01, 0.0, 0.0)).x;
        let east_60 = at_60.project(&GeoPoint::new(0.01, 60.0, 0.0)).x;
        assert!((east_60 / east_eq - 0.5).abs() < 1e-3);
    }
}
