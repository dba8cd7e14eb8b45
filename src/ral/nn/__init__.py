from .adam import Adam
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import gradient_check
from .layers import Conv2d, Dense, GlobalAvgPool, MaxPool2x2
from .loss import softmax, softmax_cross_entropy, softmax_cross_entropy_batch
from .network import LayerSpec, Network, NetworkSpec, build_classifier

__all__ = [
    "Adam", "load_checkpoint", "save_checkpoint",
    "gradient_check", "Conv2d", "Dense", "GlobalAvgPool", "MaxPool2x2",
    "softmax", "softmax_cross_entropy", "softmax_cross_entropy_batch",
    "LayerSpec", "Network", "NetworkSpec", "build_classifier",
]
