"""Command-line interface.

Subcommands: gen-data, train, eval, explain, stats.  Every command
echoes its fully resolved parameters to ``<out>/<command>.config.json``;
re-running with ``--config <that file>`` (and no other flags) repeats
the run bit-exactly.

Exit codes: 0 success, 1 usage or configuration problem, 2 missing or
malformed data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .data import GeneratorSpec, gen_synthetic_domains, load_dataset, sample_episode, save_dataset
from .errors import ConfigError, ContractError, DataFormatError, NumericError
from .evaluation import TransductiveConfig, dataset_feature_stats, evaluate
from .heatmap import render_heatmap
from .lrp import LrpConfig
from .model import build_model, explain_input, load_model, save_model
from .training import TrainConfig, default_loss_weights, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _CliParser(argparse.ArgumentParser):
    """Argparse that raises instead of calling sys.exit(2)."""

    def error(self, message):
        raise ConfigError(message)


def _require_dir(path: str, what: str) -> None:
    if not os.path.isdir(path):
        raise FileNotFoundError(f"{what} directory {path!r} does not exist")


def finite_float(text) -> float:
    """A float flag's value: ``nan``, ``inf`` and out-of-range numbers are refused."""
    try:
        value = float(text)
    except (TypeError, ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _config_value(action: argparse.Action, key: str, value):
    """One ``--config`` value, checked and converted like its flag's value.

    A string goes through the flag's ``type``; any other value must have
    that type already (an int passes for a float, a bool never passes
    for a number).  Numbers for a float flag go through its type as
    well, so ``NaN`` and ``Infinity``, which Python's ``json`` accepts,
    are refused like ``--lr nan``.  ``store_const`` flags take a JSON
    boolean, a ``nargs="+"`` flag also takes a list, and ``choices``
    apply.
    """
    if value is None:
        return None
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    kind = action.type or str
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
        if action.choices is not None and v not in action.choices:
            raise ConfigError(f"config key {key!r}: invalid choice {v!r} "
                              f"(choose from {', '.join(map(repr, action.choices))})")
        return v

    if action.nargs == "+" and isinstance(value, list) and value:
        return [check(v) for v in value]
    return check(value)


# Keys that config files echoed before an option's removal still carry,
# with the one value the remaining code implements.
_RETIRED = {"train": {"explain_variant": "query", "exact_weight_grad": False}}

# Numeric settings whose type admits values no run can use:
# key -> (accepts, what is accepted).
_RANGES = {
    "way": (lambda v: v >= 2, "at least 2"),
    "shot": (lambda v: v >= 1, "at least 1"),
    "queries": (lambda v: v >= 1, "at least 1"),
    "episodes": (lambda v: v >= 1, "at least 1"),
    "hidden": (lambda v: v >= 1, "at least 1"),
    "widths": (lambda v: min(_parse_ints(v, "widths")) >= 1, "a list of positive ints"),
    "blend": (lambda v: 0 <= v <= 1, "between 0 and 1"),
    "limit": (lambda v: v == 0 or v >= 2, "0 (all images) or at least 2"),
    "seed": (lambda v: v >= 0, "at least 0"),
}


def _resolve_params(args, defaults: dict, optional: tuple = ()) -> dict:
    """Merge flag values over defaults, or load them from --config.

    Loaded values are checked against the flags they stand for, and
    every value against its range in ``_RANGES``.  A retired key loads
    only with the value its option's removal kept.  Keys listed in
    ``optional`` may resolve to None; every other key must end up with a
    concrete value.
    """
    provided = {k: getattr(args, k) for k in defaults}
    actions = {a.dest: a for a in args.parser._actions}
    if args.config is not None:
        given = [k for k, v in provided.items() if v is not None]
        if given:
            raise ConfigError(
                f"--config replaces all other flags; drop {sorted(given)}")
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object of settings")
        loaded.pop("command", None)
        for key, kept in _RETIRED.get(args.command, {}).items():
            shown = json.dumps(loaded.pop(key, kept))
            if shown != json.dumps(kept):
                raise ConfigError(f"config key {key!r}: the option was removed and only "
                                  f"{json.dumps(kept)} remains, got {shown}")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigError(f"config file has unknown keys {sorted(unknown)}")
        params = dict(defaults)
        params.update({k: _config_value(actions[k], k, v) for k, v in loaded.items()})
    else:
        params = dict(defaults)
        params.update({k: v for k, v in provided.items() if v is not None})
    missing = [k for k, v in params.items()
               if v is None and k not in optional]
    if missing:
        raise ConfigError(f"missing required settings: {sorted(missing)}")
    for key in sorted(params.keys() & _RANGES.keys()):
        accepts, what = _RANGES[key]
        if not accepts(params[key]):
            name = (f"config key {key!r}" if args.config is not None
                    else f"argument {actions[key].option_strings[0]}")
            raise ConfigError(f"{name}: must be {what}, got {params[key]!r}")
    return params


def _echo_config(out_dir: str, command: str, params: dict) -> None:
    payload = {"command": command}
    payload.update(params)
    with open(os.path.join(out_dir, f"{command}.config.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in str(text).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}: {exc}") from exc


def _cmd_gen_data(args) -> int:
    defaults = {"out": None, "classes": 20, "per_class": 60, "height": 32,
                "width": 32, "domains": "bright,dark", "seed": 0,
                "min_gap": 0.05, "max_primitives": 3}
    params = _resolve_params(args, defaults)
    _require_dir(params["out"], "output")
    spec = GeneratorSpec(
        classes=int(params["classes"]),
        images_per_class=int(params["per_class"]),
        height=int(params["height"]), width=int(params["width"]),
        domains=tuple(str(params["domains"]).split(",")),
        max_primitives=int(params["max_primitives"]),
        min_channel_gap=float(params["min_gap"]))
    sets = gen_synthetic_domains(spec, seed=int(params["seed"]))
    for data in sets:
        path = os.path.join(params["out"], f"{data.domain_tag}.egtd")
        save_dataset(data, path)
        print(f"wrote {path}: {data.images.shape[0]} images, "
              f"{data.n_classes} classes, domain={data.domain_tag}")
    _echo_config(params["out"], "gen-data", params)
    return EXIT_OK


def _train_config(params: dict, head_kind: str) -> TrainConfig:
    baseline = params["mode"] == "baseline"
    xi, lam = default_loss_weights(head_kind, int(params["shot"]), baseline)
    if params["xi"] is not None:
        xi = float(params["xi"])
    if params["lam"] is not None:
        lam = float(params["lam"])
    if baseline and lam != 0.0:
        raise ConfigError("baseline mode requires lam=0")
    lrp_cfg = LrpConfig(epsilon=float(params["epsilon"]),
                        alpha=float(params["alpha"]))
    return TrainConfig(
        way=int(params["way"]), shot=int(params["shot"]),
        n_query=int(params["queries"]), xi=xi, lam=lam,
        lr=float(params["lr"]), momentum=float(params["momentum"]),
        epochs=int(params["epochs"]),
        episodes_per_epoch=int(params["episodes_per_epoch"]),
        lr_decay=float(params["lr_decay"]),
        lr_decay_every=int(params["lr_decay_every"]),
        lrp=lrp_cfg)


def _cmd_train(args) -> int:
    defaults = {"data": None, "out": None, "mode": "egt", "head": "cosine",
                "way": 5, "shot": 5, "queries": 16, "epochs": 100,
                "episodes_per_epoch": 100, "lr": 1e-3, "momentum": 0.9,
                "xi": None, "lam": None, "beta": None, "epsilon": 0.001,
                "alpha": 1.0, "lr_decay": 0.5, "lr_decay_every": 40,
                "seed": 0, "widths": "8,16,32", "hidden": 64}
    params = _resolve_params(args, defaults, optional=("xi", "lam", "beta"))
    _require_dir(params["out"], "output")

    data = load_dataset(params["data"])
    cfg = _train_config(params, params["head"])
    params["xi"], params["lam"] = cfg.xi, cfg.lam

    rng_model = np.random.default_rng([int(params["seed"]), 0])
    rng_episodes = np.random.default_rng([int(params["seed"]), 1])
    model = build_model(
        params["head"], data.image_shape, rng_model,
        widths=_parse_ints(params["widths"], "widths"),
        beta=None if params["beta"] is None else float(params["beta"]),
        hidden=int(params["hidden"]))
    params["beta"] = model.head.beta

    def stream():
        while True:
            yield sample_episode(data, cfg.way, cfg.shot, cfg.n_query,
                                 rng_episodes)

    log_path = os.path.join(params["out"], "train_log.csv")
    ckpt_path = os.path.join(params["out"], "model.egt1")
    rows = train(model, stream(), cfg, log_path=log_path,
                 checkpoint_path=ckpt_path)
    _echo_config(params["out"], "train", params)
    if rows:
        tail = rows[-min(len(rows), cfg.episodes_per_epoch):]
        acc = float(np.mean([r["acc"] for r in tail]))
        loss = float(np.mean([r["loss_total"] for r in tail]))
        print(f"trained {len(rows)} episodes; last epoch mean "
              f"acc={acc:.4f} loss={loss:.4f}")
    print(f"wrote {ckpt_path} and {log_path}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    defaults = {"checkpoint": None, "data": None, "out": None, "way": 5,
                "shot": 5, "queries": 16, "episodes": 2000, "seed": 0,
                "transductive": False, "iterations": 2, "candidates": "4,8",
                "workers": 1}
    params = _resolve_params(args, defaults)
    _require_dir(params["out"], "output")
    model = load_model(params["checkpoint"])
    trans = None
    if params["transductive"]:
        trans = TransductiveConfig(
            iterations=int(params["iterations"]),
            candidates_per_iter=_parse_ints(params["candidates"], "candidates"))
    paths = (params["data"] if isinstance(params["data"], list)
             else str(params["data"]).split(","))
    for path in paths:
        data = load_dataset(path)
        rng = np.random.default_rng([int(params["seed"]), 2])
        report = evaluate(model, data, int(params["way"]), int(params["shot"]),
                          int(params["queries"]), int(params["episodes"]), rng,
                          transductive=trans, workers=int(params["workers"]))
        stem = os.path.splitext(os.path.basename(path))[0]
        csv_path = os.path.join(params["out"], f"eval_{stem}.csv")
        with open(csv_path, "w") as fh:
            fh.write("episode,acc\n")
            for i, acc in enumerate(report.accuracies, start=1):
                fh.write(f"{i},{float(acc)!r}\n")
        flag = " (degenerate: single episode)" if report.degenerate else ""
        print(f"{stem}: acc={report.mean:.4f} +-{report.ci95:.4f} "
              f"over {report.episodes} episodes{flag}; wrote {csv_path}")
    params["data"] = ",".join(paths)
    _echo_config(params["out"], "eval", params)
    return EXIT_OK


def _cmd_explain(args) -> int:
    defaults = {"checkpoint": None, "data": None, "out": None, "way": 5,
                "shot": 5, "queries": 16, "seed": 0, "query": 0,
                "targets": "all", "epsilon": 0.001, "alpha": 1.0,
                "blend": 0.6}
    params = _resolve_params(args, defaults)
    _require_dir(params["out"], "output")
    model = load_model(params["checkpoint"])
    data = load_dataset(params["data"])
    rng = np.random.default_rng([int(params["seed"]), 3])
    episode = sample_episode(data, int(params["way"]), int(params["shot"]),
                             int(params["queries"]), rng)
    q = int(params["query"])
    if not 0 <= q < episode.n_query:
        raise ConfigError(f"query index {q} outside 0..{episode.n_query - 1}")
    lrp_cfg = LrpConfig(epsilon=float(params["epsilon"]),
                        alpha=float(params["alpha"]))
    query_image = episode.query_images[q]
    result = explain_input(model, episode.support_images, episode.support_local,
                           episode.way, query_image, lrp_cfg=lrp_cfg)
    predicted = int(np.argmax(result.probabilities))
    targets = [predicted] if params["targets"] == "predicted" else list(range(episode.way))
    for target in targets:
        rel = result.input_relevance[target]
        base = os.path.join(params["out"], f"query{q}_class{target}")
        render_heatmap(rel, base + ".ppm", underlay=query_image,
                       alpha=float(params["blend"]))
        np.save(base + ".npy", rel)
    probs = ", ".join(f"{p:.4f}" for p in result.probabilities)
    print(f"query {q}: true class {int(episode.query_local[q])}, "
          f"predicted {predicted}, probs [{probs}]")
    print(f"wrote {len(targets)} heatmap(s) to {params['out']}")
    _echo_config(params["out"], "explain", params)
    return EXIT_OK


def _cmd_stats(args) -> int:
    defaults = {"checkpoint": None, "data": None, "out": None, "limit": 0}
    params = _resolve_params(args, defaults)
    _require_dir(params["out"], "output")
    model = load_model(params["checkpoint"])
    data = load_dataset(params["data"])
    limit = int(params["limit"]) or None
    stats = dataset_feature_stats(model, data, limit=limit)
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
    _echo_config(params["out"], "stats", params)
    return EXIT_OK


def _add_config_flag(sub) -> None:
    sub.add_argument("--config", help="JSON file with all settings "
                     "(mutually exclusive with other flags)")
    sub.set_defaults(parser=sub)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="egt",
                        description="Explanation-guided few-shot training")
    commands = parser.add_subparsers(dest="command")

    gen = commands.add_parser("gen-data",
                              help="render the synthetic multi-domain corpus")
    _add_config_flag(gen)
    gen.add_argument("--out")
    gen.add_argument("--classes", type=int)
    gen.add_argument("--per-class", dest="per_class", type=int)
    gen.add_argument("--height", type=int)
    gen.add_argument("--width", type=int)
    gen.add_argument("--domains")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--min-gap", dest="min_gap", type=finite_float)
    gen.add_argument("--max-primitives", dest="max_primitives", type=int)
    gen.set_defaults(func=_cmd_gen_data)

    tr = commands.add_parser("train", help="train a few-shot model")
    _add_config_flag(tr)
    tr.add_argument("--data")
    tr.add_argument("--out")
    tr.add_argument("--mode", choices=["egt", "baseline"])
    tr.add_argument("--head", choices=["cosine", "relation"])
    tr.add_argument("--way", type=int)
    tr.add_argument("--shot", type=int)
    tr.add_argument("--queries", type=int)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--episodes-per-epoch", dest="episodes_per_epoch", type=int)
    tr.add_argument("--lr", type=finite_float)
    tr.add_argument("--momentum", type=finite_float)
    tr.add_argument("--xi", type=finite_float)
    tr.add_argument("--lam", type=finite_float)
    tr.add_argument("--beta", type=finite_float)
    tr.add_argument("--epsilon", type=finite_float)
    tr.add_argument("--alpha", type=finite_float)
    tr.add_argument("--lr-decay", dest="lr_decay", type=finite_float)
    tr.add_argument("--lr-decay-every", dest="lr_decay_every", type=int)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--widths")
    tr.add_argument("--hidden", type=int)
    tr.set_defaults(func=_cmd_train)

    ev = commands.add_parser("eval",
                             help="episodic accuracy with confidence interval")
    _add_config_flag(ev)
    ev.add_argument("--checkpoint")
    ev.add_argument("--data", nargs="+")
    ev.add_argument("--out")
    ev.add_argument("--way", type=int)
    ev.add_argument("--shot", type=int)
    ev.add_argument("--queries", type=int)
    ev.add_argument("--episodes", type=int)
    ev.add_argument("--seed", type=int)
    ev.add_argument("--transductive", action="store_const", const=True)
    ev.add_argument("--iterations", type=int)
    ev.add_argument("--candidates")
    ev.add_argument("--workers", type=int)
    ev.set_defaults(func=_cmd_eval)

    ex = commands.add_parser("explain", help="render query heatmaps")
    _add_config_flag(ex)
    ex.add_argument("--checkpoint")
    ex.add_argument("--data")
    ex.add_argument("--out")
    ex.add_argument("--way", type=int)
    ex.add_argument("--shot", type=int)
    ex.add_argument("--queries", type=int)
    ex.add_argument("--seed", type=int)
    ex.add_argument("--query", type=int)
    ex.add_argument("--targets", choices=["all", "predicted"])
    ex.add_argument("--epsilon", type=finite_float)
    ex.add_argument("--alpha", type=finite_float)
    ex.add_argument("--blend", type=finite_float)
    ex.set_defaults(func=_cmd_explain)

    st = commands.add_parser(
        "stats", help="per-image feature spread statistics",
        description="Per-image feature spread statistics s2 and qdiff.  The values "
                    "are in embedding units and are not scale-normalized: scaling a "
                    "feature map by a scales s2 by a**2 and qdiff by a.")
    _add_config_flag(st)
    st.add_argument("--checkpoint")
    st.add_argument("--data")
    st.add_argument("--out")
    st.add_argument("--limit", type=int)
    st.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return EXIT_USAGE
        return args.func(args)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, ContractError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError, OverflowError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
