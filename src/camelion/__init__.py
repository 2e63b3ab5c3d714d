"""camelion: contrast-adaptive tissue segmentation.

Segmenting an image whose acquisition contrast differs from the training
atlases degrades badly. This toolkit adapts the atlases instead of the
input: it alternates segmentation of the fixed input image, two-class MAP
partial-volume estimation, and synthesis of new atlas intensity images
from fixed atlas labels, until the segmentation stops changing. A
deterministic synthetic-phantom harness validates the cross-protocol
consistency claims at desk scale.
"""

__version__ = "0.1.0"
