"""Length-controllable sentence autoencoder.

Train an LSTM-based variational autoencoder on raw sentences, then decode
any sentence at a requested word count: a countdown embedding tells the
decoder how many words remain, so asking for fewer words yields a shortened
rendering of the input. Includes ROUGE evaluation against a 75-character
prefix baseline and a linear probe measuring how much length information the
latent carries.
"""

from .checkpoint import (
    CheckpointChecksumError, CheckpointError, CheckpointFormatError,
    CheckpointTruncatedError, CheckpointVersionError,
    IncompatibleCheckpointError, checkpoint_load, checkpoint_save,
)
from .inference import (
    NATURAL, BeamResult, DecodeRequest, beam_search, detokenize,
    reconstruct, summarize,
)
from .metrics import (
    RougeScore, byte_cap, extractive_pct, length_histogram, prefix_baseline,
    rouge_l, rouge_n,
)
from .model import (
    HyperParams, LatentParams, bow_loss, decode_step, encode, init_params,
    kl_divergence, length_input, posterior_means, reparameterize, total_loss,
)
from .numerics import (
    AdamState, ParamStore, Tensor, adam_step, grad_check,
    lstm_sequence,
)
from .probe import fit_linear_regression, probe_experiment, r_squared
from .textpipe import (
    Batch, GrammarSpec, TokenizedSentence, Vocabulary, build_vocab,
    default_toy_grammar, encode_batch, encode_sentences, filter_by_length,
    generate_toy_corpus, make_batch, normalize,
)
from .training import (
    MetricsLog, TrainConfig, TrainResult, TrainingDivergedError,
    kl_anneal_weight, train, word_dropout,
)

__version__ = "0.1.0"
