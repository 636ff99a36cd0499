"""Built-in datasets for the experiment pipeline.

``breast_cancer`` is the real Wisconsin diagnostic table bundled with the
package. The other three are seeded synthetic stand-ins that mirror the
shape, class balance, and rough difficulty of well-known public benchmarks
(adult-census-style binary income, dry-bean-style 7-class measurements,
covertype-style imbalanced 7-class cartography), so desk-scale experiments
run without downloads.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .data_ingest import Column, RawTable, load_csv

LABEL_COLUMNS = {
    "breast_cancer": "diagnosis",
    "adult_like": "income",
    "dry_bean_like": "variety",
    "covertype_like": "cover_type",
}

DEFAULT_SIZES = {
    "breast_cancer": 569,
    "adult_like": 48_842,
    "dry_bean_like": 13_611,
    "covertype_like": 581_012,
}


def is_builtin(name: str) -> bool:
    return name in LABEL_COLUMNS


def load_builtin(name: str, n: int | None = None,
                 seed: int = 0) -> tuple[RawTable, str]:
    """Materialize a built-in dataset as a raw table plus its label column."""
    if name == "breast_cancer":
        path = resources.files("noisygbdt").joinpath("data/breast_cancer.csv")
        with resources.as_file(path) as p:
            return load_csv(p), LABEL_COLUMNS[name]
    if name == "adult_like":
        return _adult_like(n or DEFAULT_SIZES[name], seed), LABEL_COLUMNS[name]
    if name == "dry_bean_like":
        return _dry_bean_like(n or DEFAULT_SIZES[name], seed), LABEL_COLUMNS[name]
    if name == "covertype_like":
        return _covertype_like(n or DEFAULT_SIZES[name], seed), LABEL_COLUMNS[name]
    raise ValueError(f"unknown builtin dataset {name!r}")


def _categorical(name, values) -> Column:
    return Column(name=name, kind="categorical",
                  values=np.asarray(values, dtype=object))


def _numeric(name, values) -> Column:
    return Column(name=name, kind="numeric",
                  values=np.asarray(values, dtype=np.float64))


# --------------------------------------------------------------------------
# adult-census-style binary table: mixed types, ~24% positive class, labels
# driven by an axis-aligned decision list with a small irreducible flip rate
# --------------------------------------------------------------------------

_WORKCLASSES = ["federal_gov", "local_gov", "never_worked", "private",
                "self_emp_inc", "self_emp_not_inc", "state_gov", "without_pay"]
_WORKCLASS_P = [0.03, 0.07, 0.01, 0.72, 0.04, 0.08, 0.04, 0.01]
_EDUCATION = ["dropout", "hs_grad", "some_college", "assoc", "bachelors",
              "masters", "doctorate"]
_EDU_NUM = {"dropout": 6, "hs_grad": 9, "some_college": 10, "assoc": 12,
            "bachelors": 13, "masters": 14, "doctorate": 16}
_EDU_P = [0.13, 0.32, 0.22, 0.08, 0.17, 0.06, 0.02]
_MARITAL = ["divorced", "married", "never_married", "separated", "widowed"]
_MARITAL_P = [0.14, 0.46, 0.32, 0.03, 0.05]
_OCCUPATIONS = ["admin", "armed_forces", "craft_repair", "exec_managerial",
                "farming", "handlers", "machine_op", "other_service",
                "priv_house_serv", "prof_specialty", "protective",
                "sales", "tech_support", "transport"]
_RACES = ["amer_indian", "asian_pac", "black", "other", "white"]
_RACE_P = [0.01, 0.03, 0.10, 0.01, 0.85]
_COUNTRIES = ["canada", "germany", "india", "mexico", "philippines",
              "united_states"]
_COUNTRY_P = [0.01, 0.01, 0.01, 0.02, 0.01, 0.94]

_ADULT_FLIP_RATE = 0.005


def _adult_like(n: int, seed: int) -> RawTable:
    rng = np.random.default_rng([seed, 0xAD17])
    age = np.clip(np.round(rng.gamma(6.0, 6.5, n) + 17), 17, 90)
    workclass = rng.choice(_WORKCLASSES, size=n, p=_WORKCLASS_P)
    fnlwgt = np.round(rng.lognormal(12.0, 0.5, n))
    education = rng.choice(_EDUCATION, size=n, p=_EDU_P)
    education_num = np.array([_EDU_NUM[e] for e in education], dtype=float)
    marital = rng.choice(_MARITAL, size=n, p=_MARITAL_P)
    # managerial/professional occupations concentrate among the educated
    occ_p = np.full((n, len(_OCCUPATIONS)), 1.0)
    occ_p[:, _OCCUPATIONS.index("exec_managerial")] += 3.0 * (education_num >= 12)
    occ_p[:, _OCCUPATIONS.index("prof_specialty")] += 4.0 * (education_num >= 13)
    occ_p /= occ_p.sum(axis=1, keepdims=True)
    u = rng.random(n)
    occupation = np.array(_OCCUPATIONS)[
        (u[:, None] >= np.cumsum(occ_p, axis=1)).sum(axis=1).clip(
            0, len(_OCCUPATIONS) - 1)]
    relationship = np.where(marital == "married",
                            rng.choice(["husband", "wife"], size=n),
                            rng.choice(["not_in_family", "own_child",
                                        "unmarried"], size=n))
    race = rng.choice(_RACES, size=n, p=_RACE_P)
    sex = rng.choice(["female", "male"], size=n, p=[0.33, 0.67])
    capital_gain = np.where(rng.random(n) < 0.08,
                            np.round(rng.lognormal(8.8, 0.8, n)), 0.0)
    capital_loss = np.where(rng.random(n) < 0.05,
                            np.round(rng.lognormal(7.4, 0.4, n)), 0.0)
    hours = np.clip(np.round(rng.normal(41, 11, n)), 1, 99)
    country = rng.choice(_COUNTRIES, size=n, p=_COUNTRY_P)

    married = marital == "married"
    exec_prof = np.isin(occupation, ["exec_managerial", "prof_specialty"])
    r_gain = capital_gain > 6000
    r_edu = (education_num >= 13) & married & (age >= 28)
    r_prof = married & exec_prof & (hours >= 41) & (age >= 33)
    r_grind = married & (education_num >= 10) & (hours >= 46) & (age >= 36)
    label = r_gain | r_edu | r_prof | r_grind
    flips = rng.random(n) < _ADULT_FLIP_RATE
    label = label ^ flips
    income = np.where(label, "gt_50k", "le_50k")

    return RawTable(columns=[
        _numeric("age", age),
        _categorical("workclass", workclass),
        _numeric("fnlwgt", fnlwgt),
        _categorical("education", education),
        _numeric("education_num", education_num),
        _categorical("marital_status", marital),
        _categorical("occupation", occupation),
        _categorical("relationship", relationship),
        _categorical("race", race),
        _categorical("sex", sex),
        _numeric("capital_gain", capital_gain),
        _numeric("capital_loss", capital_loss),
        _numeric("hours_per_week", hours),
        _categorical("native_country", country),
        _categorical("income", income),
    ], n_rows=n)


# --------------------------------------------------------------------------
# dry-bean-style 7-class table: 16 correlated measurements per seed cluster
# --------------------------------------------------------------------------

_BEAN_NAMES = ["barbunya", "bombay", "cali", "dermason", "horoz", "seker",
               "sira"]
_BEAN_P = [0.097, 0.038, 0.120, 0.261, 0.141, 0.149, 0.194]
_BEAN_FEATURES = [
    "area", "perimeter", "major_axis", "minor_axis", "aspect_ratio",
    "eccentricity", "convex_area", "equiv_diameter", "extent", "solidity",
    "roundness", "compactness", "shape_factor_1", "shape_factor_2",
    "shape_factor_3", "shape_factor_4",
]
_BEAN_LATENT_DIM = 4
_BEAN_SEPARATION = 7.0
_BEAN_FEATURE_NOISE = 0.35


def _dry_bean_like(n: int, seed: int) -> RawTable:
    rng = np.random.default_rng([seed, 0xBEA2])
    c = len(_BEAN_NAMES)
    labels = rng.choice(c, size=n, p=_BEAN_P)
    center_rng = np.random.default_rng([seed, 0xBEA2, 1])
    centers = center_rng.normal(0.0, 1.0, size=(c, _BEAN_LATENT_DIM))
    centers *= _BEAN_SEPARATION / np.sqrt(_BEAN_LATENT_DIM)
    # one far-out, easily separated variety mirrors the oversized-seed class
    centers[_BEAN_NAMES.index("bombay")] *= 3.0
    latent = centers[labels] + rng.normal(0.0, 1.0, size=(n, _BEAN_LATENT_DIM))
    mixing = center_rng.normal(0.0, 1.0,
                               size=(_BEAN_LATENT_DIM, len(_BEAN_FEATURES)))
    features = latent @ mixing
    features += rng.normal(0.0, _BEAN_FEATURE_NOISE, size=features.shape)

    columns = [_numeric(name, features[:, j])
               for j, name in enumerate(_BEAN_FEATURES)]
    columns.append(_categorical("variety",
                                np.array(_BEAN_NAMES, dtype=object)[labels]))
    return RawTable(columns=columns, n_rows=n)


# --------------------------------------------------------------------------
# covertype-style 7-class table: heavy imbalance, elevation-driven classes
# with substantial overlap, plus wilderness/soil categoricals
# --------------------------------------------------------------------------

_COVER_P = [0.3646, 0.4876, 0.0615, 0.0047, 0.0163, 0.0299, 0.0354]
_COVER_ELEV_MEAN = [3200.0, 2900.0, 2380.0, 2230.0, 2820.0, 2520.0, 3380.0]
_COVER_ELEV_STD = [180.0, 190.0, 120.0, 90.0, 130.0, 120.0, 110.0]
_COVER_SOIL_CENTER = [27.0, 23.5, 7.5, 2.0, 16.0, 12.0, 36.0]
_COVER_SOIL_SPREAD = [6.0, 5.5, 2.5, 1.5, 2.0, 2.5, 2.0]
_N_SOILS = 40


def _covertype_like(n: int, seed: int) -> RawTable:
    rng = np.random.default_rng([seed, 0xC0E3])
    labels = rng.choice(7, size=n, p=_COVER_P)
    elev_mean = np.asarray(_COVER_ELEV_MEAN)[labels]
    elev_std = np.asarray(_COVER_ELEV_STD)[labels]
    elevation = rng.normal(elev_mean, elev_std)
    aspect = rng.uniform(0.0, 360.0, n)
    slope = np.clip(rng.normal(14.0 + 3.0 * (labels == 3), 7.0, n), 0, 60)
    dist_hydro = np.abs(rng.normal(230.0 + 45.0 * labels
                                   - 170.0 * (labels == 3), 180.0, n))
    vert_hydro = rng.normal(45.0 - 25.0 * (labels == 3), 55.0, n)
    dist_road = np.abs(rng.normal(2300.0 - 900.0 * (labels == 3)
                                  - 500.0 * (labels == 5)
                                  - 800.0 * (labels == 4), 1400.0, n))
    hillshade_9 = np.clip(rng.normal(212.0, 25.0, n), 0, 254)
    hillshade_noon = np.clip(rng.normal(223.0, 18.0, n), 0, 254)
    hillshade_3 = np.clip(rng.normal(142.0, 35.0, n), 0, 254)
    dist_fire = np.abs(rng.normal(1980.0 + 400.0 * (labels == 6)
                                  - 600.0 * (labels == 4), 1300.0, n))

    wild_pref = np.array([
        [0.45, 0.05, 0.35, 0.15],
        [0.35, 0.05, 0.40, 0.20],
        [0.00, 0.00, 0.30, 0.70],
        [0.00, 0.00, 0.05, 0.95],
        [0.85, 0.05, 0.10, 0.00],
        [0.00, 0.00, 0.45, 0.55],
        [0.60, 0.25, 0.15, 0.00],
    ])
    u = rng.random(n)
    wilderness_idx = (u[:, None] >= np.cumsum(wild_pref[labels], axis=1)
                      ).sum(axis=1).clip(0, 3)
    wilderness = np.array([f"area_{k + 1}" for k in range(4)],
                          dtype=object)[wilderness_idx]

    soil_center = np.asarray(_COVER_SOIL_CENTER)[labels]
    soil_spread = np.asarray(_COVER_SOIL_SPREAD)[labels]
    soil = np.clip(np.round(rng.normal(soil_center, soil_spread)),
                   0, _N_SOILS - 1).astype(int)
    soil_names = np.array([f"soil_{k:02d}" for k in range(_N_SOILS)],
                          dtype=object)[soil]

    cover = np.array([f"type_{k + 1}" for k in range(7)],
                     dtype=object)[labels]
    return RawTable(columns=[
        _numeric("elevation", np.round(elevation)),
        _numeric("aspect", np.round(aspect)),
        _numeric("slope", np.round(slope)),
        _numeric("horiz_dist_hydrology", np.round(dist_hydro)),
        _numeric("vert_dist_hydrology", np.round(vert_hydro)),
        _numeric("horiz_dist_roadways", np.round(dist_road)),
        _numeric("hillshade_9am", np.round(hillshade_9)),
        _numeric("hillshade_noon", np.round(hillshade_noon)),
        _numeric("hillshade_3pm", np.round(hillshade_3)),
        _numeric("horiz_dist_fire_points", np.round(dist_fire)),
        _categorical("wilderness_area", wilderness),
        _categorical("soil_type", soil_names),
        _categorical("cover_type", cover),
    ], n_rows=n)
