"""Golden references the production paths are pinned against; production never imports this package."""
