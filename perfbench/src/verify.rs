//! Correctness checks run after the timed phase, each costing in
//! proportion to the answer it checks.

use std::collections::HashMap;

use traj_geo::{BoundingBox, Point};
use traj_model::json::JsonValue;
use traj_model::{SimplifiedSegment, Trajectory};
use traj_pipeline::DeviceId;
use traj_store::{DeviceMatch, KnnNeighbor};

/// Grid cell edge of [`OriginalGrid`], metres.
const CELL: f64 = 500.0;

/// The original points of a fleet bucketed by grid cell, so the originals
/// inside a query window are found without scanning the fleet.
pub struct OriginalGrid {
    cells: HashMap<(i64, i64), Vec<(u32, u32)>>,
}

fn cell_of(x: f64, y: f64) -> (i64, i64) {
    ((x / CELL).floor() as i64, (y / CELL).floor() as i64)
}

impl OriginalGrid {
    pub fn new(fleet: &[(DeviceId, Trajectory)]) -> Self {
        let mut cells: HashMap<(i64, i64), Vec<(u32, u32)>> = HashMap::new();
        for (d, (_, traj)) in fleet.iter().enumerate() {
            for (i, p) in traj.points().iter().enumerate() {
                cells
                    .entry(cell_of(p.x, p.y))
                    .or_default()
                    .push((d as u32, i as u32));
            }
        }
        OriginalGrid { cells }
    }

    /// `(fleet index, point)` of every original inside `window`.
    pub fn inside<'a>(
        &'a self,
        fleet: &'a [(DeviceId, Trajectory)],
        window: &'a BoundingBox,
    ) -> impl Iterator<Item = (usize, Point)> + 'a {
        let (x0, y0) = cell_of(window.min_x, window.min_y);
        let (x1, y1) = cell_of(window.max_x, window.max_y);
        (x0..=x1)
            .flat_map(move |x| (y0..=y1).map(move |y| (x, y)))
            .filter_map(|c| self.cells.get(&c))
            .flatten()
            .map(|&(d, i)| (d as usize, fleet[d as usize].1.point(i as usize)))
            .filter(|(_, p)| window.contains(p))
    }
}

/// Distance from `p` to the nearest supporting line of `segments`
/// (the paper's error measure; ∞ when there are none).
pub fn nearest(segments: &[SimplifiedSegment], p: &Point) -> f64 {
    segments
        .iter()
        .map(|s| s.distance_to_line(p))
        .fold(f64::INFINITY, f64::min)
}

/// An original point beyond the bound from an answer: the fleet index of
/// its device, the point, and its distance to the answer.
pub type Outlier = (usize, Point, f64);

/// The originals of fleet entry `index` with a timestamp in `[t0, t1]`
/// that lie beyond `bound` of every returned segment.
pub fn slice_outliers(
    fleet: &[(DeviceId, Trajectory)],
    index: usize,
    (t0, t1): (f64, f64),
    segments: &[SimplifiedSegment],
    bound: f64,
) -> Vec<Outlier> {
    let points = fleet[index].1.points();
    let first = points.partition_point(|p| p.t < t0);
    points[first..]
        .iter()
        .take_while(|p| p.t <= t1)
        .map(|p| (index, *p, nearest(segments, p)))
        .filter(|o| o.2 > bound)
        .collect()
}

/// The originals inside `window` (and `time`) that lie beyond `bound` of
/// every returned segment of their own device.
pub fn window_outliers(
    grid: &OriginalGrid,
    fleet: &[(DeviceId, Trajectory)],
    window: &BoundingBox,
    time: Option<(f64, f64)>,
    matches: &[DeviceMatch],
    bound: f64,
) -> Vec<Outlier> {
    let by_device: HashMap<DeviceId, &[SimplifiedSegment]> = matches
        .iter()
        .map(|m| (m.device, m.segments.as_slice()))
        .collect();
    grid.inside(fleet, window)
        .filter(|(_, p)| time.is_none_or(|(t0, t1)| t0 <= p.t && p.t <= t1))
        .map(|(d, p)| {
            let returned = by_device.get(&fleet[d].0).copied().unwrap_or(&[]);
            (d, p, nearest(returned, &p))
        })
        .filter(|o| o.2 > bound)
        .collect()
}

/// Parses a response body in one linear pass.  `JsonValue::parse`
/// re-validates the rest of the input for every string character, which
/// makes checking a large window answer take seconds.
pub fn parse_json(text: &str) -> Option<JsonValue> {
    let mut parser = LinearParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    (parser.pos == parser.bytes.len()).then_some(value)
}

struct LinearParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl LinearParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&byte);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match *self.bytes.get(self.pos)? {
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if self.eat(b'}') {
                    return Some(JsonValue::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return None;
                    }
                    pairs.push((key, self.value()?));
                    if self.eat(b'}') {
                        return Some(JsonValue::Object(pairs));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Some(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b']') {
                        return Some(JsonValue::Array(items));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            b'"' => self.string().map(JsonValue::String),
            b'n' => self.literal("null", JsonValue::Null),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            _ => {
                let start = self.pos;
                while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                text.parse().ok().map(JsonValue::Number)
            }
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Option<JsonValue> {
        let hit = self.bytes[self.pos..].starts_with(word.as_bytes());
        self.pos += word.len() * usize::from(hit);
        hit.then_some(value)
    }

    /// A string without escapes (the server's keys and values have none).
    fn string(&mut self) -> Option<String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return None;
        }
        let start = self.pos + 1;
        let len = self.bytes[start..].iter().position(|&b| b == b'"')?;
        let raw = &self.bytes[start..start + len];
        if raw.contains(&b'\\') {
            return None;
        }
        self.pos = start + len + 1;
        std::str::from_utf8(raw).ok().map(str::to_string)
    }
}

/// A stored segment rebuilt from the server's JSON form.
pub fn segment_from_json(v: &JsonValue) -> Option<SimplifiedSegment> {
    let f = |key: &str| v.get(key).and_then(JsonValue::as_f64);
    let i = |key: &str| v.get(key).and_then(JsonValue::as_usize);
    Some(SimplifiedSegment::new(
        traj_geo::DirectedSegment::new(
            Point::new(f("x0")?, f("y0")?, f("t0")?),
            Point::new(f("x1")?, f("y1")?, f("t1")?),
        ),
        i("first_index")?,
        i("last_index")?,
    ))
}

pub fn segments_from_json(v: Option<&JsonValue>) -> Option<Vec<SimplifiedSegment>> {
    v?.as_array()?.iter().map(segment_from_json).collect()
}

pub fn matches_from_json(v: Option<&JsonValue>) -> Option<Vec<DeviceMatch>> {
    v?.as_array()?
        .iter()
        .map(|m| {
            Some(DeviceMatch {
                device: m.get("device")?.as_f64()? as DeviceId,
                segments: segments_from_json(m.get("segments"))?,
            })
        })
        .collect()
}

pub fn neighbors_from_json(v: Option<&JsonValue>) -> Option<Vec<KnnNeighbor>> {
    v?.as_array()?
        .iter()
        .map(|n| {
            Some(KnnNeighbor {
                device: n.get("device")?.as_f64()? as DeviceId,
                distance: n.get("distance")?.as_f64()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_geo::DirectedSegment;

    fn line_fleet() -> Vec<(DeviceId, Trajectory)> {
        let traj = Trajectory::new_unchecked(
            (0..20)
                .map(|i| Point::new(i as f64 * 100.0, 5.0, i as f64))
                .collect(),
        );
        vec![(4, traj)]
    }

    fn flat_segment() -> SimplifiedSegment {
        SimplifiedSegment::new(
            DirectedSegment::new(Point::new(0.0, 0.0, 0.0), Point::new(1900.0, 0.0, 19.0)),
            0,
            19,
        )
    }

    #[test]
    fn grid_finds_exactly_the_originals_in_a_window() {
        let fleet = line_fleet();
        let grid = OriginalGrid::new(&fleet);
        let window = BoundingBox {
            min_x: 450.0,
            min_y: 0.0,
            max_x: 1250.0,
            max_y: 10.0,
        };
        let found: Vec<f64> = grid.inside(&fleet, &window).map(|(_, p)| p.x).collect();
        let mut found = found;
        found.sort_by(f64::total_cmp);
        assert_eq!(
            found,
            vec![500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0]
        );
    }

    #[test]
    fn error_bound_checks_catch_a_far_answer() {
        let fleet = line_fleet();
        let grid = OriginalGrid::new(&fleet);
        let near = [flat_segment()];
        assert!(slice_outliers(&fleet, 0, (3.0, 9.0), &near, 6.0).is_empty());
        assert_eq!(slice_outliers(&fleet, 0, (3.0, 9.0), &near, 4.0).len(), 7);
        let window = BoundingBox {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 300.0,
            max_y: 10.0,
        };
        let hit = [DeviceMatch {
            device: 4,
            segments: near.to_vec(),
        }];
        assert!(window_outliers(&grid, &fleet, &window, None, &hit, 6.0).is_empty());
        // A missing device is a false negative.
        assert_eq!(
            window_outliers(&grid, &fleet, &window, None, &[], 6.0).len(),
            4
        );
        // Outside the time range nothing is required.
        assert!(window_outliers(&grid, &fleet, &window, Some((50.0, 60.0)), &[], 6.0).is_empty());
    }

    #[test]
    fn linear_parser_agrees_with_the_model_parser() {
        let text = r#"{"matches":[{"device":3,"segments":[]}],"stats":{"skip_ratio":0.25,"x":-1.5e-3},"position":null,"ok":true}"#;
        assert!(parse_json(text).is_some());
        assert_eq!(parse_json(text), JsonValue::parse(text).ok());
        assert_eq!(parse_json("{\"a\":1} x"), None);
        assert_eq!(parse_json("[1,"), None);
    }

    #[test]
    fn json_segments_round_trip() {
        let s = flat_segment();
        let json = JsonValue::parse(
            "[{\"x0\":0,\"y0\":0,\"t0\":0,\"x1\":1900,\"y1\":0,\"t1\":19,\"first_index\":0,\"last_index\":19}]",
        )
        .unwrap();
        assert_eq!(segments_from_json(Some(&json)), Some(vec![s]));
    }
}
