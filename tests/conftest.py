"""Fixtures shared by the test modules."""

import os

import pytest

from repro.experiments import grid
from repro.overlay.blueprint import BlueprintCache


@pytest.fixture
def swap_blueprint_cache(monkeypatch):
    """``swap(max_peers, max_worlds=64)``: replace the process blueprint
    cache with an empty one of that budget for the test (the world
    count is slack unless given, so the peer budget is what binds) and
    return it.  Fork workers inherit the swap."""

    def swap(max_peers, max_worlds=64):
        cache = BlueprintCache(max_peers=max_peers, max_worlds=max_worlds)
        monkeypatch.setattr(grid, "_BLUEPRINT_CACHE", cache)
        return cache

    return swap


@pytest.fixture
def eight_world_cache(swap_blueprint_cache):
    """A process cache whose peer budget is eight 60-peer
    ``small_config`` worlds, so a ten-seed test grid is over budget in
    peers the way a 6000-peer one is in production."""
    return swap_blueprint_cache(max_peers=8 * 60)


@pytest.fixture
def mkdirs(monkeypatch):
    """The directories ``os.mkdir`` (hence ``os.makedirs``) makes during
    the test, in order."""
    made = []
    mkdir = os.mkdir

    def counted(path, *args, **kwargs):
        made.append(str(path))
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", counted)
    return made
