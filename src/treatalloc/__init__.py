"""Budget-constrained treatment allocation toolkit.

Submodules are imported lazily so the command-line front end can configure
thread limits before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "RctDataset": "data",
    "CounterfactualMatrix": "data",
    "GeneratorConfig": "data",
    "generate_synthetic": "data",
    "load_csv": "data",
    "write_csv": "data",
    "split": "data",
    "PredictionMatrix": "solver",
    "Allocation": "solver",
    "DualSolution": "solver",
    "decide_dual": "solver",
    "solve_budget": "solver",
    "dual_value": "solver",
    "brute_force_oracle": "solver",
    "LambdaGrid": "losses",
    "BudgetGrid": "losses",
    "prediction_loss": "losses",
    "full_mse": "losses",
    "policy_learning_loss": "losses",
    "max_entropy_loss": "losses",
    "tempered_policy_loss": "losses",
    "oracle_dual_losses": "losses",
    "GradientPair": "gradients",
    "ips_dual_loss": "gradients",
    "flip_fd_gradient": "gradients",
    "dual_flip_gradient": "gradients",
    "gradient_inner_loss": "gradients",
    "softmax_flip_gradient": "gradients",
    "OutcomeEstimate": "evaluation",
    "CostCurve": "evaluation",
    "evaluate_policy": "evaluation",
    "evaluate_at_budget": "evaluation",
    "allocate_at_budget": "evaluation",
    "bootstrap_policy_se": "evaluation",
    "default_budget_grid": "evaluation",
    "cost_curve": "evaluation",
    "aucc": "evaluation",
    "ModelConfig": "model",
    "ModelParams": "model",
    "init_params": "model",
    "forward": "model",
    "backward": "model",
    "optimizer_step": "model",
    "warm_start": "model",
    "save_checkpoint": "model",
    "load_checkpoint": "model",
    "TrainConfig": "training",
    "EpochRecord": "training",
    "train": "training",
    "evaluate_checkpoint": "training",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
