from watertank.cli import entry

entry()
