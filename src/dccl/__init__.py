"""Domain-connecting contrastive learning on synthetic multi-domain data.

The package bundles a small reverse-mode autodiff engine, the MLP model
zoo (encoder, projection head, generative transformer; the frozen anchor
is a model of kind "anchor"), the contrastive loss family with
cross-domain positives and anchor mixing, synthetic multi-domain
generators, the intra-class connectivity metric, and a
leave-one-domain-out experiment harness with an ablation grid, all wired
into one CLI.
"""

__version__ = "0.1.0"
