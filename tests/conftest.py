import numpy as np
import pytest

from otrobust.controller import LqrWeights, build_schedule, lqr_gain, linearize_plant
from otrobust.f16 import DEG, AeroTables, AircraftParams
from otrobust.harness import NOMINAL_ALPHA_DEG, NOMINAL_V, ControllerSetup
from otrobust.trim import default_grid, find_trim, trim_grid


@pytest.fixture(scope="session")
def params():
    return AircraftParams()


@pytest.fixture(scope="session")
def tables():
    return AeroTables.default()


@pytest.fixture(scope="session")
def nominal_trim(params, tables):
    return find_trim(NOMINAL_V, NOMINAL_ALPHA_DEG * DEG, params, tables)


@pytest.fixture(scope="session")
def nominal_gain(params, tables, nominal_trim):
    model = linearize_plant(nominal_trim.x_trim.as_array(),
                            nominal_trim.u_trim.as_array(), params, tables)
    return lqr_gain(model, LqrWeights())


@pytest.fixture(scope="session")
def grid_trims(params, tables):
    return trim_grid(default_grid(), params, tables)


@pytest.fixture(scope="session")
def forward_cg_params():
    """A plant with its c.g. forward at 0.25 c (the nominal is 0.30 c), on
    whose default grid 14 nodes trim with delta_e past the tables' last
    breakpoint."""
    return AircraftParams(xcg=0.25 * 11.32)


@pytest.fixture(scope="session")
def forward_cg_grid_trims(forward_cg_params, tables):
    return trim_grid(default_grid(), forward_cg_params, tables)


@pytest.fixture(scope="session")
def schedule(params, tables, grid_trims, nominal_trim):
    return build_schedule(grid_trims, LqrWeights(), params, tables,
                          reference=nominal_trim)


@pytest.fixture(scope="session")
def setup(params, tables, nominal_trim, nominal_gain, schedule):
    model = linearize_plant(nominal_trim.x_trim.as_array(),
                            nominal_trim.u_trim.as_array(), params, tables)
    return ControllerSetup(trim=nominal_trim, K=nominal_gain, model=model,
                           schedule=schedule, params=params, tables=tables)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
