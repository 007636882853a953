"""Plane-sweep multi-view stereo reconstruction toolkit.

Depth maps are estimated per reference view by sweeping depth
hypotheses, scoring photo-consistency against warped source features,
regularizing the scores with a streaming recurrent network (or a
weight-free fallback), and taking a per-pixel winner.  Estimates are
then cross-checked between views and fused into a point cloud.
"""

from .costvol import CostSlice, cost_volume_stream
from .depthmap import DepthMap
from .estimator import (
    cross_entropy_loss,
    loss_gradient_logits,
    online_softmax_wta,
    softmax_volume,
)
from .features import (
    ConvLayerWeights,
    DrenetWeights,
    conv2d,
    drenet_forward,
    group_norm_relu,
    photometric_features,
    random_drenet_weights,
)
from .fusion import (
    FusionParams,
    PointCloud,
    ViewEstimate,
    dynamic_consistency_map,
    dynamic_filter,
    fixed_threshold_filter,
    fuse_point_cloud,
    probability_filter,
)
from .geometry import (
    Camera,
    HypothesisSpace,
    sample_hypotheses,
    warp_grid,
)
from .metrics import (
    EvalReport,
    accuracy_completeness,
    evaluate_clouds,
    fscore,
    nearest_distance,
)
from .regularizer import (
    HuLstmWeights,
    ScoreSlice,
    conv_lstm_cell,
    hu_lstm_step,
    passthrough_regularizer,
    random_hulstm_weights,
    regularize_stream,
)
from .synth import (
    AnalyticDepth,
    CameraRigSpec,
    Plane,
    SceneSpec,
    Sphere,
    make_camera_ring,
    perturb_depths,
    render_scene,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
