"""Authorship verification with a hierarchical recurrent Siamese network.

Two weight-sharing document encoders (a word-to-sentence LSTM feeding a
sentence-to-document LSTM) map texts to fixed-length style embeddings;
a two-threshold contrastive loss trains them so that same-author pairs
sit close in Euclidean distance and different-author pairs sit far, and
verification is a threshold decision on that distance.
"""

from .embeddings import EmbeddingTable, load_embeddings
from .encoder import (
    DropoutMasks,
    EncoderParams,
    embed_documents,
    init_encoder_params,
    sample_dropout_masks,
)
from .encoder import encode_document as embed_document
from .evaluate import (
    CheckpointError,
    ConfusionCounts,
    CvReport,
    Metrics,
    Model,
    calibrate_tau,
    confusion_metrics,
    counts_at_threshold,
    cross_validate,
    evaluate_pairs,
    load_checkpoint,
    pair_distances,
    roc_auc,
    save_checkpoint,
    verify_pair,
)
from .lstm import (
    LstmParams,
    LstmState,
    LstmTape,
    lstm_run,
    lstm_run_backward,
)
from .numeric import (
    ShapeError,
    clip_by_global_norm,
    global_norm,
    make_rng,
    uniform_init,
)
from .preprocess import (
    EmptyDocumentError,
    EncodedDocument,
    VerificationInstance,
    concatenate_known,
    encode_document,
    load_corpus,
    normalize_text,
    save_corpus,
    segment_sentences,
    tokenize,
)
from .siamese import (
    DIFFERENT_AUTHORS,
    SAME_AUTHOR,
    PairScore,
    Thresholds,
    contrastive_loss,
    contrastive_loss_grad,
    decide,
    distance,
    in_batch_negative_loss,
)
from .synthetic import SyntheticSpec, generate_corpus, write_synthetic
from .train import (
    AdadeltaState,
    CvSplit,
    EncodedPair,
    FitResult,
    TrainConfig,
    adadelta_update,
    augment_epoch,
    batch_gradients,
    encode_instance,
    fit,
    make_cv_splits,
    train_step,
)

__version__ = "0.1.0"
