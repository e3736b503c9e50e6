"""Uncertainty-aware eye segmentation on procedurally generated imagery.

Pipeline: render labeled eye frames -> detect and crop the eye region ->
segment the crop into {background, eye, iris, pupil} -> predict per-pixel
diagonal latent variances -> reduce them to a scalar uncertainty score used
for score-ranked filtering and gaze fusion.
"""

__version__ = "0.1.0"
