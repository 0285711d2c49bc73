//! Property tests of bounding-box geometry, run on seeded
//! [`cases`](adsim_stats::rng::cases).

use adsim_dnn::detection::BBox;
use adsim_stats::rng::cases;
use adsim_stats::Rng64;

fn bbox(rng: &mut Rng64) -> BBox {
    let (x, y) = (rng.range_f32(0.0, 1.0), rng.range_f32(0.0, 1.0));
    BBox::new(x, y, rng.range_f32(0.01, 0.5), rng.range_f32(0.01, 0.5))
}

#[test]
fn iou_is_symmetric_and_bounded() {
    let check = |a: BBox, b: BBox| {
        let iab = a.iou(&b);
        let iba = b.iou(&a);
        assert!((iab - iba).abs() < 1e-6, "{iab} vs {iba}");
        assert!((0.0..=1.0 + 1e-6).contains(&iab), "{iab}");
        // Self-IoU through corner round-trips suffers f32 cancellation
        // on small boxes; allow a relative slack.
        assert!((a.iou(&a) - 1.0).abs() < 5e-3, "self-IoU {}", a.iou(&a));
    };
    // A minimal input this property once failed on: a near-minimal box
    // far from the origin, where the self-IoU cancellation is worst.
    check(BBox::new(0.0, 0.963_208_5, 0.01, 0.010_094_949), BBox::new(0.0, 0.0, 0.01, 0.01));
    cases(64, |rng| check(bbox(rng), bbox(rng)));
}
