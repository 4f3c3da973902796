//! Order statistics and the min/median/max spread stamped on results.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geometric mean of an empty sample");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The spread of the samples behind one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub count: usize,
}

impl Spread {
    pub fn of(v: &[f64]) -> Spread {
        if v.is_empty() {
            return Spread {
                min: 0.0,
                median: 0.0,
                max: 0.0,
                count: 0,
            };
        }
        let s = sorted(v.to_vec());
        Spread {
            min: s[0],
            median: quantile(&s, 0.5),
            max: s[s.len() - 1],
            count: s.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
