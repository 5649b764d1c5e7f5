"""Author name disambiguation over bibliographic records.

Records are grouped into blocks by atomic name variate (first-name initial
plus last name); ambiguous names inside a block are resolved by a small
two-branch neural classifier over co-author names and title/source text.
"""

from .blocking import Block, BlockEntry, BlockingError, BlockStats, block_stats, build_block, corpus_stats
from .dblp_xml import DblpParseError, ParseCounters, parse_dblp_stream
from .encoders import (
    Encoders,
    HashingNameEncoder,
    HashingTextEncoder,
    TableEncoder,
    default_encoders,
    load_embedding_table,
    name_input,
    text_input,
)
from .metrics import EVAL_ALL, EVAL_ANV, EvalReport, evaluate_block, micro_macro_report
from .model import (
    AdamState,
    CheckpointError,
    ModelConfig,
    ModelParams,
    adam_step,
    class_weights,
    forward_batch,
    init_adam_state,
    init_model,
    load_checkpoint,
    loss_and_gradients_batch,
    save_checkpoint,
)
from .names import (
    AtomicVariate,
    AuthorRegistry,
    NormalizedName,
    atomic_variate,
    build_author_registry,
    name_forms,
    normalize_name,
)
from .predict import Prediction, PredictionError, Route, RouteKind, predict_author, route_name
from .records import AuthorId, AuthorMention, BibRecord, parse_author_id
from .store import CorpusStoreError, load_corpus, read_corpus_store, write_corpus_store
from .synth import SynthConfig, SynthCorpus, gen_synth
from .training import (
    MODE_ANV,
    MODE_FULL,
    Split,
    SplitAssignment,
    TrainingError,
    TrainingMonitor,
    TrainResult,
    TrainRunConfig,
    derive_block_seeds,
    split_per_author,
    train_block_model,
)

__version__ = "0.1.0"
