"""Golden references the production paths are pinned against; production never imports this package.

``forcefields`` (the allocating classical bodies), ``scalar`` (the per-atom
Deep Potential loop and environment build), ``deepmd`` (the per-key table
interpolation and the framework baseline), and ``nnframework`` + ``graph``
(the autograd framework and the Deep Potential energy as a graph over it:
the §III-B.1 baseline and the gradient golden of the trainer).
"""
