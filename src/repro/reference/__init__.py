"""Golden references the production paths are pinned against; production never imports this package.

``forcefields`` (the allocating classical bodies), ``scalar`` (the per-atom
Deep Potential loop and environment build) and ``deepmd`` (the per-key table
interpolation and the framework baseline).
"""
