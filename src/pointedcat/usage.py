"""Help and usage text of the CLI, written from its command table
(cli.COMMANDS, passed in, since cli may run as __main__). Imported only for
--help and on a usage error, so no job that runs compiles it."""

from __future__ import annotations

USAGE = "usage: pointedcat COMMAND [OPTIONS]\n"


def _flag(name: str, kind: type, metavar: str) -> str:
    return f"--{name}" if kind is bool else f"--{name} {metavar}"


def usage(commands: dict, command: str | None) -> str:
    """The usage line of a command in the table, else the general one."""
    if command not in commands:
        return USAGE
    parts = [_flag(name, kind, metavar) if required else f"[{_flag(name, kind, metavar)}]"
             for name, kind, required, _, metavar, _ in commands[command][2]]
    return f"usage: pointedcat {command} " + " ".join(parts) + "\n"


def help_text(commands: dict, command: str | None) -> str:
    """The command list when command is None, else the options of one command."""
    if command is None:
        return "".join([
            USAGE, "\nConstruct and exactly verify pointed modular data from even lattices.\n",
            "\ncommands:\n", *(f"  {name:<10} {entry[1]}\n" for name, entry in commands.items()),
            "\nRun 'pointedcat COMMAND --help' for the options of one command.\n"])
    return "".join([
        usage(commands, command), f"\n{commands[command][1]}\n\noptions:\n",
        *(f"  {_flag(name, kind, metavar):<16} {text}\n"
          for name, kind, _, _, metavar, text in commands[command][2])])
