"""Sequence classification with a peephole-LSTM stack topped by a
loss-guided historical state layer."""

from .cells import (
    HeadParams,
    LstmParams,
    LstmState,
    head_predict,
    init_head,
    init_lstm_params,
    lstm_step,
)
from .dataio import (
    Dataset,
    FeatureSequence,
    SynthConfig,
    load_manifest,
    read_fseq,
    synth_keyframe_dataset,
    synth_train_test,
    write_fseq,
    write_manifest,
)
from .historical import (
    HistoricalConfig,
    HistoricalTrace,
    StepRecord,
    compute_alpha,
    historical_update,
    initial_trace,
    truncation_weights,
)
from .network import (
    ForwardTrace,
    StackedNetwork,
    backward_sequence,
    build_network,
    forward_sequence,
    load_checkpoint,
    predict,
    save_checkpoint,
    total_loss,
)
from .numerics import EPS_LOSS_FLOOR, ShapeError, cross_entropy, sigmoid, softmax
from .trainer import (
    AdamState,
    GradCheckReport,
    Metrics,
    TrainConfig,
    adam_step,
    cross_validate,
    evaluate,
    grad_check,
    kfold_split,
    lr_schedule,
    train,
)

__version__ = "0.1.0"
