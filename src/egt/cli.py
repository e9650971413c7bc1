"""Command-line interface.

Subcommands: gen-data, train, eval, explain, stats.  Every command
echoes its fully resolved parameters to ``<out>/<command>.config.json``;
re-running with ``--config <that file>`` (and no other flags) repeats
the run bit-exactly.

Each setting is declared once, in :data:`SETTINGS`: its kind, default
and range there give the command its flag ``--<key with - for _>``,
check and convert ``--config`` values, and fill in what a run leaves
out.  Adding a setting means adding one entry there.

Exit codes: 0 success, 1 usage, configuration or allocation problem,
2 missing or malformed data, 3 numeric failure.  A warning the library
raises during a run is printed as one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .data import GeneratorSpec, gen_synthetic_domains, load_dataset, sample_episode, save_dataset
from .errors import ConfigError, ContractError, DataFormatError, NumericError
from .evaluation import TransductiveConfig, dataset_feature_stats, evaluate
from .heatmap import DEFAULT_BLEND, render_heatmap
from .lrp import LrpConfig
from .model import (DEFAULT_HIDDEN, DEFAULT_WIDTHS, build_model, explain_input, load_model,
                    save_model)
from .training import TrainConfig, default_loss_weights, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
# Each error main reports as one line, with its exit code (see errors.py).
_EXIT_CODES = {
    ConfigError: EXIT_USAGE, json.JSONDecodeError: EXIT_USAGE, MemoryError: EXIT_USAGE,
    DataFormatError: EXIT_DATA, ContractError: EXIT_DATA, FileNotFoundError: EXIT_DATA,
    IsADirectoryError: EXIT_DATA, NotADirectoryError: EXIT_DATA, PermissionError: EXIT_DATA,
    NumericError: EXIT_NUMERIC, FloatingPointError: EXIT_NUMERIC, OverflowError: EXIT_NUMERIC,
    ZeroDivisionError: EXIT_NUMERIC}


class _CliParser(argparse.ArgumentParser):
    """Argparse that raises instead of calling sys.exit(2)."""

    def error(self, message):
        raise ConfigError(message)


def finite_float(text) -> float:
    """A float flag's value: ``nan``, ``inf`` and out-of-range numbers are refused."""
    try:
        value = float(text)
    except (TypeError, ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in str(text).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}: {exc}") from exc


REQUIRED = object()
"""The default of a setting that has none: every run must give it."""


def _at_least(n: int) -> tuple:
    return (lambda v: v >= n, f"at least {n}")


# Settings several commands share.  A default the library also has is
# read from its owner; a list setting holds it comma-separated.
_PATH = (str, REQUIRED, None)
_INPUTS = {"checkpoint": _PATH, "data": _PATH, "out": _PATH}
_EPISODE = {"way": (int, TrainConfig.way, _at_least(2)),
            "shot": (int, TrainConfig.shot, _at_least(1)),
            "queries": (int, TrainConfig.n_query, _at_least(1))}
_SEED = {"seed": (int, 0, _at_least(0))}
_LRP = {"epsilon": (finite_float, LrpConfig.epsilon, None)}
_RESOLVED_BY_TRAIN = (finite_float, None, None)

# command -> key -> (kind, default, range).  A kind is a type, a tuple of
# choices, bool for an on/off flag or list for one or more strings.  A
# default of None leaves the setting unset until the command resolves it.
# A range is (accepts, what is accepted) or None.
SETTINGS = {
    "gen-data": {
        "out": _PATH, "classes": (int, GeneratorSpec.classes, None),
        "per_class": (int, GeneratorSpec.images_per_class, None),
        "height": (int, GeneratorSpec.height, None), "width": (int, GeneratorSpec.width, None),
        "domains": (str, ",".join(GeneratorSpec.domains), None), **_SEED,
        "min_gap": (finite_float, GeneratorSpec.min_channel_gap, None),
        "max_primitives": (int, GeneratorSpec.max_primitives, None)},
    "train": {
        "data": _PATH, "out": _PATH, "mode": (("egt", "baseline"), "egt", None),
        "head": (("cosine", "relation"), "cosine", None), **_EPISODE,
        "epochs": (int, TrainConfig.epochs, None),
        "episodes_per_epoch": (int, TrainConfig.episodes_per_epoch, None),
        "lr": (finite_float, TrainConfig.lr, None),
        "momentum": (finite_float, TrainConfig.momentum, None),
        "xi": _RESOLVED_BY_TRAIN, "lam": _RESOLVED_BY_TRAIN, "beta": _RESOLVED_BY_TRAIN,
        **_LRP, "lr_decay": (finite_float, TrainConfig.lr_decay, None),
        "lr_decay_every": (int, TrainConfig.lr_decay_every, None), **_SEED,
        "widths": (str, ",".join(map(str, DEFAULT_WIDTHS)),
                   (lambda v: min(_parse_ints(v, "widths")) >= 1, "a list of positive ints")),
        "hidden": (int, DEFAULT_HIDDEN, _at_least(1))},
    "eval": {  # "data" keeps its place in _INPUTS but takes one or more files
        **_INPUTS, "data": (list, REQUIRED, None), **_EPISODE,
        "episodes": (int, 2000, _at_least(1)), **_SEED, "transductive": (bool, False, None),
        "iterations": (int, TransductiveConfig.iterations, None),
        "candidates": (str, ",".join(map(str, TransductiveConfig.candidates_per_iter)), None)},
    "explain": {
        **_INPUTS, **_EPISODE, **_SEED, "query": (int, 0, None),
        "targets": (("all", "predicted"), "all", None), **_LRP,
        "blend": (finite_float, DEFAULT_BLEND, (lambda v: 0 <= v <= 1, "between 0 and 1"))},
    "stats": {
        **_INPUTS,
        "limit": (int, 0, (lambda v: v == 0 or v >= 2, "0 (all images) or at least 2"))},
}


def _config_value(kind, key: str, value):
    """One ``--config`` value, checked and converted like its flag's value.

    A string goes through the setting's type; any other value must have
    that type already (an int passes for a float, a bool never passes
    for a number).  Numbers for a float setting go through its type as
    well, so ``NaN`` and ``Infinity``, which Python's ``json`` accepts,
    are refused like ``--lr nan``.  An on/off flag takes a JSON boolean,
    a list setting also takes a list, and choices apply.
    """
    if value is None:
        return None
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    many, choices = kind is list, kind if isinstance(kind, tuple) else None
    kind = str if many or choices else kind
    number = kind is finite_float
    allowed = (str, int, float) if number else (str, kind)

    def check(v):
        if isinstance(v, bool) or not isinstance(v, allowed):
            raise ConfigError(f"config key {key!r} must be "
                              f"{'float' if number else kind.__name__}, got {v!r}")
        if isinstance(v, str) or number:
            try:
                v = kind(v)
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
            except ValueError:
                raise ConfigError(f"config key {key!r}: invalid {kind.__name__} "
                                  f"value {v!r}") from None
        if choices is not None and v not in choices:
            raise ConfigError(f"config key {key!r}: invalid choice {v!r} "
                              f"(choose from {', '.join(map(repr, choices))})")
        return v

    if many and isinstance(value, list) and value:
        return [check(v) for v in value]
    return check(value)


# Keys that config files echoed before an option's removal still carry,
# with the one value the remaining code implements.
_RETIRED = {"train": {"explain_variant": "query", "exact_weight_grad": False, "alpha": 1.0},
            "eval": {"workers": 1}, "explain": {"alpha": 1.0}}


def _resolve_params(args) -> dict:
    """Merge flag values over the command's defaults, or load them from --config.

    Loaded values are checked against the settings they stand for, and
    every value against its range.  A retired key loads only with the
    value its option's removal kept.  Settings whose default is None may
    stay unset, also through a JSON ``null``; every other setting must end
    up with a concrete value, so ``null`` is refused for it.
    """
    table = SETTINGS[args.command]
    given = {k: v for k, v in vars(args).items() if k in table and v is not None}
    if args.config is not None:
        if given:
            raise ConfigError(
                f"--config replaces all other flags; drop {sorted(given)}")
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object of settings")
        command = loaded.pop("command", args.command)
        if command != args.command:
            raise ConfigError(f"config file is for command {command!r}, "
                              f"not {args.command!r}")
        for key, kept in _RETIRED.get(args.command, {}).items():
            shown = json.dumps(loaded.pop(key, kept))
            if shown != json.dumps(kept):
                raise ConfigError(f"config key {key!r}: the option was removed and only "
                                  f"{json.dumps(kept)} remains, got {shown}")
        unknown = set(loaded) - set(table)
        if unknown:
            raise ConfigError(f"config file has unknown keys {sorted(unknown)}")
        for key in sorted(loaded):
            if loaded[key] is None and table[key][1] is not None:
                raise ConfigError(f"config key {key!r} must not be null")
        given = {k: _config_value(table[k][0], k, v) for k, v in loaded.items()}
    params = {k: default for k, (_, default, _) in table.items()}
    params.update(given)
    missing = [k for k, v in params.items() if v is REQUIRED]
    if missing:
        raise ConfigError(f"missing required settings: {sorted(missing)}")
    for key in sorted(params):
        check = table[key][2]
        if check is not None and not check[0](params[key]):
            name = (f"config key {key!r}" if args.config is not None
                    else f"argument --{key.replace('_', '-')}")
            raise ConfigError(f"{name}: must be {check[1]}, got {params[key]!r}")
    return params


def _cmd_gen_data(params: dict) -> None:
    spec = GeneratorSpec(
        classes=params["classes"], images_per_class=params["per_class"],
        height=params["height"], width=params["width"],
        domains=tuple(params["domains"].split(",")),
        max_primitives=params["max_primitives"], min_channel_gap=params["min_gap"])
    for data in gen_synthetic_domains(spec, seed=params["seed"]):
        path = os.path.join(params["out"], f"{data.domain_tag}.egtd")
        save_dataset(data, path)
        print(f"wrote {path}: {data.images.shape[0]} images, "
              f"{data.n_classes} classes, domain={data.domain_tag}")


def _train_config(params: dict) -> TrainConfig:
    baseline = params["mode"] == "baseline"
    defaults = default_loss_weights(params["head"], params["shot"], baseline)
    xi, lam = (d if params[k] is None else params[k] for k, d in zip(("xi", "lam"), defaults))
    if baseline and lam != 0.0:
        raise ConfigError("baseline mode requires lam=0")
    return TrainConfig(
        way=params["way"], shot=params["shot"], n_query=params["queries"],
        xi=xi, lam=lam, lr=params["lr"], momentum=params["momentum"],
        epochs=params["epochs"], episodes_per_epoch=params["episodes_per_epoch"],
        lr_decay=params["lr_decay"], lr_decay_every=params["lr_decay_every"],
        lrp=LrpConfig(epsilon=params["epsilon"]))


def _cmd_train(params: dict) -> None:
    data = load_dataset(params["data"])
    cfg = _train_config(params)
    params["xi"], params["lam"] = cfg.xi, cfg.lam

    rng_model = np.random.default_rng([params["seed"], 0])
    rng_episodes = np.random.default_rng([params["seed"], 1])
    model = build_model(
        params["head"], data.image_shape, rng_model,
        widths=_parse_ints(params["widths"], "widths"),
        beta=params["beta"], hidden=params["hidden"])
    params["beta"] = model.head.beta

    stream = iter(lambda: sample_episode(data, cfg.way, cfg.shot, cfg.n_query, rng_episodes),
                  None)  # endless: an episode is never None
    log_path = os.path.join(params["out"], "train_log.csv")
    ckpt_path = os.path.join(params["out"], "model.egt1")
    rows = train(model, stream, cfg, log_path=log_path,
                 checkpoint_path=ckpt_path)
    if rows:
        tail = rows[-min(len(rows), cfg.episodes_per_epoch):]
        acc = float(np.mean([r["acc"] for r in tail]))
        loss = float(np.mean([r["loss_total"] for r in tail]))
        print(f"trained {len(rows)} episodes; last epoch mean "
              f"acc={acc:.4f} loss={loss:.4f}")
    print(f"wrote {ckpt_path} and {log_path}")


def _cmd_eval(params: dict) -> None:
    # A config echoed before the list form holds the files comma-separated.
    paths = params["data"] = (params["data"] if isinstance(params["data"], list)
                              else params["data"].split(","))
    stems = [os.path.splitext(os.path.basename(path))[0] for path in paths]
    for stem in stems:
        if stems.count(stem) > 1:
            raise ConfigError(f"more than one --data file has the stem {stem!r}; "
                              f"each would write eval_{stem}.csv")
    model = load_model(params["checkpoint"])
    trans = TransductiveConfig(params["iterations"],
                               _parse_ints(params["candidates"], "candidates"))
    for path, stem in zip(paths, stems):
        data = load_dataset(path)
        rng = np.random.default_rng([params["seed"], 2])
        report = evaluate(model, data, params["way"], params["shot"],
                          params["queries"], params["episodes"], rng,
                          transductive=trans if params["transductive"] else None)
        csv_path = os.path.join(params["out"], f"eval_{stem}.csv")
        with open(csv_path, "w") as fh:
            fh.write("episode,acc\n")
            for i, acc in enumerate(report.accuracies, start=1):
                fh.write(f"{i},{float(acc)!r}\n")
        flag = " (degenerate: single episode)" if report.degenerate else ""
        print(f"{stem}: acc={report.mean:.4f} +-{report.ci95:.4f} "
              f"over {report.episodes} episodes{flag}; wrote {csv_path}")


def _cmd_explain(params: dict) -> None:
    model = load_model(params["checkpoint"])
    data = load_dataset(params["data"])
    rng = np.random.default_rng([params["seed"], 3])
    episode = sample_episode(data, params["way"], params["shot"],
                             params["queries"], rng)
    q = params["query"]
    if not 0 <= q < episode.n_query:
        raise ConfigError(f"query index {q} outside 0..{episode.n_query - 1}")
    lrp_cfg = LrpConfig(epsilon=params["epsilon"])
    query_image = episode.query_images[q]
    result = explain_input(model, episode.support_images, episode.support_local,
                           episode.way, query_image, lrp_cfg=lrp_cfg)
    predicted = int(np.argmax(result.probabilities))
    targets = [predicted] if params["targets"] == "predicted" else list(range(episode.way))
    for target in targets:
        rel = result.input_relevance[target]
        base = os.path.join(params["out"], f"query{q}_class{target}")
        render_heatmap(rel, base + ".ppm", underlay=query_image,
                       alpha=params["blend"])
        np.save(base + ".npy", rel)
    probs = ", ".join(f"{p:.4f}" for p in result.probabilities)
    print(f"query {q}: true class {int(episode.query_local[q])}, "
          f"predicted {predicted}, probs [{probs}]")
    print(f"wrote {len(targets)} heatmap(s) to {params['out']}")


def _cmd_stats(params: dict) -> None:
    model = load_model(params["checkpoint"])
    data = load_dataset(params["data"])
    if len(data.images) < 2:
        raise DataFormatError(f"stats needs at least 2 images for a spread; "
                              f"{params['data']} holds {len(data.images)}")
    stats = dataset_feature_stats(model, data, limit=params["limit"] or None)
    stem = os.path.splitext(os.path.basename(params["data"]))[0]
    csv_path = os.path.join(params["out"], f"stats_{stem}.csv")
    with open(csv_path, "w") as fh:
        fh.write("image,label,s2,qdiff\n")
        for i, st in enumerate(stats):
            fh.write(f"{i},{int(data.labels[i])},{st.s2!r},{st.qdiff!r}\n")
    s2 = np.array([st.s2 for st in stats])
    qd = np.array([st.qdiff for st in stats])
    summary_path = os.path.join(params["out"], f"stats_{stem}_summary.csv")
    with open(summary_path, "w") as fh:
        fh.write("n,mean_s2,std_s2,mean_qdiff,std_qdiff\n")
        fh.write(f"{len(stats)},{float(s2.mean())!r},{float(s2.std(ddof=1))!r},"
                 f"{float(qd.mean())!r},{float(qd.std(ddof=1))!r}\n")
    print(f"{stem}: n={len(stats)} mean_s2={s2.mean():.6f} "
          f"mean_qdiff={qd.mean():.6f}")
    print(f"wrote {csv_path} and {summary_path}")


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="egt",
                        description="Explanation-guided few-shot training")
    commands = parser.add_subparsers(dest="command")
    for name, func, summary in (
            ("gen-data", _cmd_gen_data, "render the synthetic multi-domain corpus"),
            ("train", _cmd_train, "train a few-shot model"),
            ("eval", _cmd_eval, "episodic accuracy with confidence interval"),
            ("explain", _cmd_explain, "render query heatmaps"),
            ("stats", _cmd_stats, "per-image feature spread statistics")):
        sub = commands.add_parser(name, help=summary)
        sub.add_argument("--config", help="JSON file with all settings "
                         "(mutually exclusive with other flags)")
        for key, (kind, _, _) in SETTINGS[name].items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                sub.add_argument(flag, action="store_const", const=True)
            elif kind is list:
                sub.add_argument(flag, nargs="+")
            elif isinstance(kind, tuple):
                sub.add_argument(flag, choices=kind)
            else:
                sub.add_argument(flag, type=kind)
        sub.set_defaults(func=func)
    commands.choices["stats"].description = (
        "Per-image feature spread statistics s2 and qdiff.  The values "
        "are in embedding units and are not scale-normalized: scaling a "
        "feature map by a scales s2 by a**2 and qdiff by a.")
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            args = parser.parse_args(argv)
            if getattr(args, "func", None) is None:
                parser.print_help()
                return EXIT_USAGE
            params = _resolve_params(args)
            if not os.path.isdir(params["out"]):
                raise FileNotFoundError(f"output directory {params['out']!r} does not exist")
            args.func(params)
            with open(os.path.join(params["out"], f"{args.command}.config.json"), "w") as fh:
                json.dump({"command": args.command, **params}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
